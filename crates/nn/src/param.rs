//! Parameter storage shared by all modules of a model.
//!
//! Parameters live *outside* the autograd tape: each forward pass introduces
//! them as tape leaves via [`crate::ctx::TrainCtx::param`], and the optimizer
//! writes updated values back into the store.

use tranad_tensor::{Rng, Shape, Tensor};

/// Opaque handle to one parameter tensor in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// The raw index (stable for the lifetime of the store).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Flat container of every trainable tensor in a model.
#[derive(Clone, Default)]
pub struct ParamStore {
    params: Vec<Tensor>,
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new parameter with the given initial value.
    pub fn add(&mut self, value: Tensor) -> ParamId {
        self.params.push(value);
        ParamId(self.params.len() - 1)
    }

    /// Current value of a parameter.
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.params[id.0]
    }

    /// Overwrites a parameter's value (optimizer step).
    pub fn set(&mut self, id: ParamId, value: Tensor) {
        assert_eq!(
            self.params[id.0].shape(),
            value.shape(),
            "parameter shape changed"
        );
        self.params[id.0] = value;
    }

    /// Mutable access to a parameter for in-place updates. Writing through
    /// the returned tensor's `data_mut` copies-on-write first if the storage
    /// is shared (e.g. a live snapshot or tape leaf), so aliases keep their
    /// old values.
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.params[id.0]
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True if no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total scalar count across all parameters.
    pub fn numel(&self) -> usize {
        self.params.iter().map(Tensor::numel).sum()
    }

    /// All parameter ids.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.params.len()).map(ParamId)
    }

    /// Snapshot of every parameter value (for MAML snapshot/restore and
    /// early-stopping best-weights tracking). With shared tensor storage
    /// this is O(#params) handle clones, not a deep copy — copy-on-write
    /// keeps the snapshot stable if the live parameters are later updated
    /// in place.
    pub fn snapshot(&self) -> Vec<Tensor> {
        self.params.clone()
    }

    /// Restores values taken with [`ParamStore::snapshot`].
    pub fn restore(&mut self, snapshot: &[Tensor]) {
        assert_eq!(snapshot.len(), self.params.len(), "snapshot size mismatch");
        self.params.clone_from_slice(snapshot);
    }
}

/// Deterministic initializer for model weights.
pub struct Init {
    rng: Rng,
}

impl Init {
    /// A seeded initializer; the same seed yields identical models.
    pub fn with_seed(seed: u64) -> Self {
        Init { rng: Rng::new(seed) }
    }

    /// Xavier/Glorot uniform initialization for a `[fan_in, fan_out]` matrix.
    pub fn xavier(&mut self, fan_in: usize, fan_out: usize) -> Tensor {
        let limit = (6.0 / (fan_in + fan_out) as f64).sqrt();
        self.uniform([fan_in, fan_out], -limit, limit)
    }

    /// Uniform values in `[lo, hi)` of an arbitrary shape.
    pub fn uniform(&mut self, shape: impl Into<Shape>, lo: f64, hi: f64) -> Tensor {
        let shape = shape.into();
        let rng = &mut self.rng;
        Tensor::from_fn(shape, |_| rng.range_f64(lo, hi))
    }

    /// Standard-normal values scaled by `std`.
    pub fn normal(&mut self, shape: impl Into<Shape>, std: f64) -> Tensor {
        let shape = shape.into();
        let rng = &mut self.rng;
        Tensor::from_fn(shape, |_| rng.normal() * std)
    }

    /// Access to the underlying RNG (e.g. for shuffling).
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_set_roundtrip() {
        let mut store = ParamStore::new();
        let id = store.add(Tensor::ones([2, 2]));
        assert_eq!(store.get(id).data(), &[1.0; 4]);
        store.set(id, Tensor::zeros([2, 2]));
        assert_eq!(store.get(id).data(), &[0.0; 4]);
        assert_eq!(store.len(), 1);
        assert_eq!(store.numel(), 4);
    }

    #[test]
    #[should_panic(expected = "parameter shape changed")]
    fn set_shape_mismatch_panics() {
        let mut store = ParamStore::new();
        let id = store.add(Tensor::ones([2, 2]));
        store.set(id, Tensor::zeros([3]));
    }

    #[test]
    fn snapshot_restore() {
        let mut store = ParamStore::new();
        let id = store.add(Tensor::ones([3]));
        let snap = store.snapshot();
        store.set(id, Tensor::zeros([3]));
        store.restore(&snap);
        assert_eq!(store.get(id).data(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn xavier_within_limit() {
        let mut init = Init::with_seed(42);
        let w = init.xavier(8, 8);
        let limit = (6.0 / 16.0_f64).sqrt();
        assert!(w.data().iter().all(|v| v.abs() <= limit));
        assert_eq!(w.shape().dims(), &[8, 8]);
    }

    #[test]
    fn seeded_init_is_deterministic() {
        let a = Init::with_seed(7).xavier(4, 4);
        let b = Init::with_seed(7).xavier(4, 4);
        assert_eq!(a.data(), b.data());
        let c = Init::with_seed(8).xavier(4, 4);
        assert_ne!(a.data(), c.data());
    }

    #[test]
    fn normal_has_roughly_right_std() {
        let mut init = Init::with_seed(1);
        let t = init.normal([10_000], 2.0);
        let mean = t.mean();
        let var = t.data().iter().map(|v| (v - mean) * (v - mean)).sum::<f64>()
            / t.numel() as f64;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }
}
