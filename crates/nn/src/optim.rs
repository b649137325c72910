//! Optimizers (AdamW, SGD) and the step learning-rate scheduler used by the
//! paper (§4: AdamW, initial lr 0.01, step scheduler with factor 0.5).

use crate::param::{ParamId, ParamStore};
use std::collections::HashMap;
use tranad_telemetry::Recorder;
use tranad_tensor::Tensor;

/// AdamW: Adam with decoupled weight decay (Loshchilov & Hutter).
pub struct AdamW {
    /// Learning rate (mutated by schedulers).
    pub lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    weight_decay: f64,
    t: u64,
    m: HashMap<usize, Tensor>,
    v: HashMap<usize, Tensor>,
    rec: Recorder,
}

impl AdamW {
    /// Creates an AdamW optimizer with standard betas (0.9, 0.999).
    pub fn new(lr: f64) -> Self {
        AdamW {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 1e-4,
            t: 0,
            m: HashMap::new(),
            v: HashMap::new(),
            rec: Recorder::disabled(),
        }
    }

    /// Sets the decoupled weight-decay coefficient.
    pub fn with_weight_decay(mut self, wd: f64) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Attaches a telemetry recorder: each step observes the gradient L2
    /// norm (`optim.grad_norm` histogram) and tracks the learning-rate
    /// schedule (`optim.lr` gauge). The norm is only computed when the
    /// recorder is enabled, so a disabled recorder costs one branch.
    pub fn with_recorder(mut self, rec: Recorder) -> Self {
        self.rec = rec;
        self
    }

    /// Applies one update given `(param, gradient)` pairs.
    ///
    /// Updates run in place through [`ParamStore::get_mut`]; copy-on-write
    /// detaches any live snapshot or tape leaf sharing the storage, so the
    /// result is bitwise identical to the old clone-and-set path.
    pub fn step(&mut self, store: &mut ParamStore, grads: &[(ParamId, Tensor)]) {
        let _s = tranad_telemetry::span::enter("optim.step");
        self.t += 1;
        if self.rec.enabled() {
            self.rec.observe("optim.grad_norm", grad_norm(grads));
            self.rec.gauge("optim.lr", self.lr);
            self.rec.add("optim.steps", 1);
        }
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (id, g) in grads {
            let idx = id.index();
            let m = self.m.entry(idx).or_insert_with(|| Tensor::zeros(*g.shape()));
            let v = self.v.entry(idx).or_insert_with(|| Tensor::zeros(*g.shape()));
            let gd = g.data();
            let md = m.data_mut();
            let vd = v.data_mut();
            let pd = store.get_mut(*id).data_mut();
            for i in 0..gd.len() {
                let gi = gd[i];
                let mi = self.beta1 * md[i] + (1.0 - self.beta1) * gi;
                let vi = self.beta2 * vd[i] + (1.0 - self.beta2) * gi * gi;
                md[i] = mi;
                vd[i] = vi;
                let m_hat = mi / bc1;
                let v_hat = vi / bc2;
                pd[i] -= self.lr * (m_hat / (v_hat.sqrt() + self.eps) + self.weight_decay * pd[i]);
            }
        }
    }
}

/// Plain stochastic gradient descent; used for the MAML inner loop.
pub struct Sgd {
    /// Learning rate.
    pub lr: f64,
}

impl Sgd {
    /// Creates an SGD optimizer.
    pub fn new(lr: f64) -> Self {
        Sgd { lr }
    }

    /// Applies `p -= lr * g` for each pair, in place (copy-on-write protects
    /// any snapshot sharing the storage).
    pub fn step(&self, store: &mut ParamStore, grads: &[(ParamId, Tensor)]) {
        let _s = tranad_telemetry::span::enter("optim.sgd_step");
        for (id, g) in grads {
            for (pi, gi) in store.get_mut(*id).data_mut().iter_mut().zip(g.data()) {
                *pi -= self.lr * gi;
            }
        }
    }
}

/// Multiplies the learning rate by `gamma` every `step_size` epochs.
pub struct StepLr {
    base_lr: f64,
    step_size: u64,
    gamma: f64,
}

impl StepLr {
    /// Creates a scheduler. The paper uses `gamma = 0.5`.
    pub fn new(base_lr: f64, step_size: u64, gamma: f64) -> Self {
        assert!(step_size > 0, "step_size must be positive");
        StepLr { base_lr, step_size, gamma }
    }

    /// Learning rate at the given (0-based) epoch.
    pub fn lr_at(&self, epoch: u64) -> f64 {
        self.base_lr * self.gamma.powi((epoch / self.step_size) as i32)
    }

    /// Updates an optimizer in place for the given epoch.
    pub fn apply(&self, opt: &mut AdamW, epoch: u64) {
        opt.lr = self.lr_at(epoch);
    }
}

/// Global L2 norm of a gradient list.
pub fn grad_norm(grads: &[(ParamId, Tensor)]) -> f64 {
    grads
        .iter()
        .map(|(_, g)| g.data().iter().map(|v| v * v).sum::<f64>())
        .sum::<f64>()
        .sqrt()
}

/// Clips gradients in place so their global L2 norm is at most `max_norm`.
/// Returns the pre-clip norm.
pub fn clip_grad_norm(grads: &mut [(ParamId, Tensor)], max_norm: f64) -> f64 {
    let norm = grad_norm(grads);
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for (_, g) in grads.iter_mut() {
            g.scale_assign(scale);
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::TrainCtx;
    use crate::fwd::Value;

    /// Minimizes (p - 3)^2; any sane optimizer drives p toward 3.
    fn quadratic_descent(mut make_step: impl FnMut(&mut ParamStore, &[(ParamId, Tensor)])) -> f64 {
        let mut store = ParamStore::new();
        let id = store.add(Tensor::from_slice(&[0.0]));
        for _ in 0..200 {
            let ctx = TrainCtx::train(&store, 0);
            let p = ctx.param(id);
            let target = ctx.input(Tensor::from_slice(&[3.0]));
            let loss = p.sub(&target).square().sum_all();
            loss.backward();
            let grads = ctx.grads();
            make_step(&mut store, &grads);
        }
        store.get(id).data()[0]
    }

    #[test]
    fn adamw_converges_on_quadratic() {
        let mut opt = AdamW::new(0.1).with_weight_decay(0.0);
        let p = quadratic_descent(|store, grads| opt.step(store, grads));
        assert!((p - 3.0).abs() < 0.05, "converged to {p}");
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let opt = Sgd::new(0.1);
        let p = quadratic_descent(|store, grads| opt.step(store, grads));
        assert!((p - 3.0).abs() < 1e-6, "converged to {p}");
    }

    #[test]
    fn weight_decay_shrinks_unused_direction() {
        // With pure decay (zero gradient), parameters shrink toward 0.
        let mut store = ParamStore::new();
        let id = store.add(Tensor::from_slice(&[1.0]));
        let mut opt = AdamW::new(0.1).with_weight_decay(0.1);
        for _ in 0..50 {
            opt.step(&mut store, &[(id, Tensor::zeros([1]))]);
        }
        assert!(store.get(id).data()[0] < 0.7);
    }

    /// The pre-refactor AdamW update: clone the parameter, update the clone
    /// element by element, write it back with `set`. Kept here as the
    /// reference the in-place path must match to the last bit.
    struct CloneAndSetAdamW {
        lr: f64,
        beta1: f64,
        beta2: f64,
        eps: f64,
        weight_decay: f64,
        t: u64,
        m: std::collections::HashMap<usize, Tensor>,
        v: std::collections::HashMap<usize, Tensor>,
    }

    impl CloneAndSetAdamW {
        fn new(lr: f64, weight_decay: f64) -> Self {
            CloneAndSetAdamW {
                lr,
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8,
                weight_decay,
                t: 0,
                m: std::collections::HashMap::new(),
                v: std::collections::HashMap::new(),
            }
        }

        fn step(&mut self, store: &mut ParamStore, grads: &[(ParamId, Tensor)]) {
            self.t += 1;
            let bc1 = 1.0 - self.beta1.powi(self.t as i32);
            let bc2 = 1.0 - self.beta2.powi(self.t as i32);
            for (id, g) in grads {
                let idx = id.index();
                let m = self.m.entry(idx).or_insert_with(|| Tensor::zeros(*g.shape()));
                let v = self.v.entry(idx).or_insert_with(|| Tensor::zeros(*g.shape()));
                let mut p = store.get(*id).clone();
                for i in 0..g.numel() {
                    let gi = g.data()[i];
                    let mi = self.beta1 * m.data()[i] + (1.0 - self.beta1) * gi;
                    let vi = self.beta2 * v.data()[i] + (1.0 - self.beta2) * gi * gi;
                    m.data_mut()[i] = mi;
                    v.data_mut()[i] = vi;
                    let m_hat = mi / bc1;
                    let v_hat = vi / bc2;
                    let pd = p.data_mut();
                    pd[i] -=
                        self.lr * (m_hat / (v_hat.sqrt() + self.eps) + self.weight_decay * pd[i]);
                }
                store.set(*id, p);
            }
        }
    }

    #[test]
    fn in_place_adamw_matches_clone_and_set_bitwise() {
        use tranad_tensor::Rng;

        let mut rng = Rng::new(0x5eed);
        let mut store_a = ParamStore::new();
        let mut store_b = ParamStore::new();
        let init = Tensor::from_fn([4, 3], |i| ((i as f64) * 0.31).sin());
        let ida = store_a.add(init.clone());
        let idb = store_b.add(init);

        let mut new_opt = AdamW::new(0.01).with_weight_decay(1e-4);
        let mut old_opt = CloneAndSetAdamW::new(0.01, 1e-4);
        for _ in 0..25 {
            let g = Tensor::from_fn([4, 3], |_| rng.normal());
            // Keep a live snapshot across the in-place step so the update
            // has to copy-on-write, exercising the aliased path too.
            let snap = store_a.snapshot();
            new_opt.step(&mut store_a, &[(ida, g.clone())]);
            old_opt.step(&mut store_b, &[(idb, g)]);
            assert_eq!(
                store_a.get(ida).data(),
                store_b.get(idb).data(),
                "in-place AdamW diverged from clone-and-set at t={}",
                new_opt.t
            );
            assert_ne!(
                snap[0].data(),
                store_a.get(ida).data(),
                "snapshot must keep pre-step values"
            );
        }
    }

    #[test]
    fn in_place_sgd_matches_clone_and_set_bitwise() {
        let mut store_a = ParamStore::new();
        let mut store_b = ParamStore::new();
        let init = Tensor::from_fn([7], |i| (i as f64 * 0.7).cos());
        let ida = store_a.add(init.clone());
        let idb = store_b.add(init);
        let opt = Sgd::new(0.05);
        for step in 0..10 {
            let g = Tensor::from_fn([7], |i| ((i + step) as f64 * 0.13).sin());
            opt.step(&mut store_a, &[(ida, g.clone())]);
            // reference: clone, update, set
            let mut p = store_b.get(idb).clone();
            for (pi, gi) in p.data_mut().iter_mut().zip(g.data()) {
                *pi -= opt.lr * gi;
            }
            store_b.set(idb, p);
            assert_eq!(store_a.get(ida).data(), store_b.get(idb).data());
        }
    }

    #[test]
    fn step_lr_schedule() {
        let sched = StepLr::new(0.01, 5, 0.5);
        assert_eq!(sched.lr_at(0), 0.01);
        assert_eq!(sched.lr_at(4), 0.01);
        assert_eq!(sched.lr_at(5), 0.005);
        assert_eq!(sched.lr_at(10), 0.0025);
    }

    #[test]
    fn clip_grad_norm_scales() {
        let mut grads = vec![(ParamId(0), Tensor::from_slice(&[3.0, 4.0]))];
        let pre = clip_grad_norm(&mut grads, 1.0);
        assert!((pre - 5.0).abs() < 1e-12);
        let post: f64 = grads[0].1.data().iter().map(|v| v * v).sum::<f64>();
        assert!((post.sqrt() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clip_grad_norm_noop_under_limit() {
        let mut grads = vec![(ParamId(0), Tensor::from_slice(&[0.3, 0.4]))];
        clip_grad_norm(&mut grads, 1.0);
        assert_eq!(grads[0].1.data(), &[0.3, 0.4]);
    }
}
