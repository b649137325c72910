//! The two-mode forward abstraction: model code is written once against
//! [`Fwd`] / [`Value`] and runs either **taped** (training — every op records
//! a tape node with a backward closure, via [`TrainCtx`] and [`Var`]) or
//! **tape-free** (serving — plain eager tensor kernels, via [`InferCtx`] and
//! [`Tensor`]).
//!
//! ## Determinism argument
//!
//! Taped-vs-tape-free parity is structural: [`Value`] lives in
//! `tranad-tensor`, where `impl Value for Tensor` is the only definition of
//! each op's forward value, and every `impl Value for Var` body computes its
//! output by calling that impl on its input values before recording a tape
//! node. The one exception is layer norm: `Var::layer_norm_last` and
//! `Var::layer_norm_affine` call `Tensor::layer_norm_parts` because backward
//! needs the `inv_std` and `normed` values it returns, while the tape-free
//! `layer_norm_affine` is a fused kernel with a documented bitwise contract.
//! Beyond that, the only differences are the absent tape allocations and the
//! absent `op.*` telemetry spans, neither of which touches an f64. The eager
//! kernels themselves are thread-count-invariant (task boundaries depend only
//! on problem size), so parity holds at any `TRANAD_THREADS` setting.
//! `crates/tranad/tests/infer_parity.rs` asserts all of this bit-for-bit.
//!
//! ## Workspace lifecycle
//!
//! [`InferCtx`] holds no buffers of its own: intermediates draw from the
//! thread-local [`tranad_tensor::bufpool`], and because no tape keeps them
//! alive, each one is recycled the moment the next op drops it. A scoring
//! pass therefore reuses a small, fixed working set of pooled buffers
//! instead of accreting one allocation per op the way a tape does.

use crate::ctx::TrainCtx;
use crate::param::{ParamId, ParamStore};
use tranad_tensor::{Tensor, Var};

pub use tranad_tensor::Value;

/// A forward-pass context: hands model code its parameters and inputs as
/// [`Value`]s and hosts the stochastic bits (dropout). Layers are written
/// once against this trait; [`TrainCtx`] runs them taped for training,
/// [`InferCtx`] runs them tape-free for serving.
pub trait Fwd {
    /// The value representation this context computes with.
    type V: Value;
    /// The value of parameter `id`.
    fn param(&self, id: ParamId) -> Self::V;
    /// Introduces a non-parameter input (data, masks, constants).
    fn input(&self, t: Tensor) -> Self::V;
    /// Inverted dropout (identity when not training).
    fn dropout(&self, x: &Self::V, p: f64) -> Self::V;
    /// Whether stochastic layers are active.
    fn training(&self) -> bool;
}

impl Fwd for TrainCtx<'_> {
    type V = Var;
    fn param(&self, id: ParamId) -> Var {
        TrainCtx::param(self, id)
    }
    fn input(&self, t: Tensor) -> Var {
        TrainCtx::input(self, t)
    }
    fn dropout(&self, x: &Var, p: f64) -> Var {
        TrainCtx::dropout(self, x, p)
    }
    fn training(&self) -> bool {
        self.training
    }
}

/// The tape-free serving context: parameters come straight out of the
/// [`ParamStore`] as O(1) copy-on-write handles, inputs pass through
/// untouched, dropout is the identity (inference is always eval-mode), and
/// no tape, node list or backward closure is ever allocated.
pub struct InferCtx<'a> {
    store: &'a ParamStore,
}

impl<'a> InferCtx<'a> {
    /// A tape-free evaluation context over the given parameters.
    pub fn new(store: &'a ParamStore) -> Self {
        InferCtx { store }
    }
}

/// Reusable input staging for tape-free forwards: one window stack and one
/// context stack, resized per batch and recycled across calls.
///
/// A batch-1 owner (a single-stream online state) calls
/// [`InferWorkspace::stage`] with `n = 1` every push and keeps reusing the
/// same two buffers; the serving engine stages `n` rows per cross-stream
/// round, and because [`Tensor::stage`] reuses storage whenever the element
/// count matches, consecutive rounds at the same occupancy are
/// allocation-free. The forward pass holds its input clones only
/// transiently, so the storage is uniquely owned again by the next call.
pub struct InferWorkspace {
    window: Tensor,
    context: Tensor,
}

impl InferWorkspace {
    /// An empty workspace; the first [`InferWorkspace::stage`] call sizes it.
    pub fn new() -> Self {
        InferWorkspace { window: Tensor::zeros([1]), context: Tensor::zeros([1]) }
    }

    /// Sizes the stacks for an `n`-row batch over `[k, m]` windows and
    /// `[c, m]` contexts and returns their writable storage
    /// (`n*k*m` and `n*c*m` f64s, stale — the caller fills every row).
    pub fn stage(&mut self, n: usize, k: usize, c: usize, m: usize) -> (&mut [f64], &mut [f64]) {
        (self.window.stage([n, k, m]), self.context.stage([n, c, m]))
    }

    /// The staged `[n, window, m]` input stack.
    pub fn window(&self) -> &Tensor {
        &self.window
    }

    /// The staged `[n, context, m]` input stack.
    pub fn context(&self) -> &Tensor {
        &self.context
    }
}

impl Default for InferWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl Fwd for InferCtx<'_> {
    type V = Tensor;
    fn param(&self, id: ParamId) -> Tensor {
        self.store.get(id).clone()
    }
    fn input(&self, t: Tensor) -> Tensor {
        t
    }
    fn dropout(&self, x: &Tensor, _p: f64) -> Tensor {
        // Inference is always eval-mode, where dropout is the identity —
        // exactly what `TrainCtx::eval` computes.
        x.clone()
    }
    fn training(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infer_ctx_hands_out_shared_params_and_identity_dropout() {
        let mut store = ParamStore::new();
        let id = store.add(Tensor::from_fn([3, 3], |i| i as f64));
        let ctx = InferCtx::new(&store);
        let p = ctx.param(id);
        assert!(p.shares_storage(store.get(id)), "param must be an O(1) handle");
        let x = ctx.input(Tensor::from_fn([4, 4], |i| 1.0 - i as f64));
        let y = ctx.dropout(&x, 0.9);
        assert_eq!(x.data(), y.data());
        assert!(!ctx.training());
    }
}
