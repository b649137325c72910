//! Property test for the buffer pool: results must never depend on what a
//! recycled buffer previously held.
//!
//! Strategy: compute a battery of tensor/tape operations twice — once with
//! an empty pool (every buffer freshly allocated and zeroed) and once with
//! a pool deliberately poisoned with NaN-filled recycled buffers of every
//! size class the battery uses. If any op exposed a stale element instead
//! of overwriting it, the poisoned run would produce NaN (never bitwise
//! equal to anything) and the comparison would fail.

use tranad_tensor::{bufpool, Act, Rng, Tape, Tensor, Value};

/// Fills the thread-local pool with NaN buffers across a wide range of
/// size classes, several per class.
fn poison_pool() {
    for exp in 0..14u32 {
        let n = 1usize << exp;
        for extra in 0..3 {
            let mut t = Tensor::zeros([n + extra.min(n - 1)]);
            t.data_mut().fill(f64::NAN);
            drop(t); // unique => recycled with NaN contents
        }
    }
}

/// Runs a battery of ops and returns every produced value, in order.
fn battery(seed: u64) -> Vec<f64> {
    let mut out = Vec::new();
    let mut rng = Rng::new(seed);
    let mut fill = |shape: &[usize]| {
        let r = &mut rng;
        Tensor::from_fn(shape.to_vec(), |_| r.normal())
    };

    // Raw tensor ops that write into pooled `uninit`/`zeroed` buffers.
    let a = fill(&[3, 4, 5]);
    let b = fill(&[3, 5, 4]);
    let c = fill(&[4]);
    out.extend_from_slice(a.matmul(&b).data());
    out.extend_from_slice(a.matmul_nt_scaled(&fill(&[3, 2, 5]), 0.5).data());
    out.extend_from_slice(a.matmul_bias_act(&b, Some(&c), Act::Tanh).data());

    // Matmuls big enough that the tiled kernels pack the rhs into pooled
    // per-thread panel scratch (`kernels::should_pack` is true for these
    // shapes): if packing ever read a stale element from a recycled — here
    // NaN-poisoned — scratch buffer, these results would differ.
    let big_a = fill(&[48, 50]);
    let big_b = fill(&[50, 48]);
    let big_bias = fill(&[48]);
    out.extend_from_slice(big_a.matmul(&big_b).data());
    out.extend_from_slice(big_a.matmul_bias_act(&big_b, Some(&big_bias), Act::Sigmoid).data());
    let big_a3 = fill(&[2, 24, 50]);
    let big_b3 = fill(&[2, 50, 48]);
    out.extend_from_slice(big_a3.matmul(&big_b3).data());
    out.extend_from_slice(big_a3.matmul(&big_b).data());
    out.extend_from_slice(big_a.matmul_tn(&fill(&[48, 44])).data());
    out.extend_from_slice(a.map(|v| v * 2.0 + 1.0).data());
    let row5 = fill(&[5]);
    out.extend_from_slice(a.broadcast_zip(&row5, |x, y| x + y).data());
    let (normed, inv_std) = a.layer_norm_parts(1e-5);
    out.extend_from_slice(normed.data());
    out.extend_from_slice(inv_std.data());
    let gamma5 = fill(&[5]);
    let beta5 = fill(&[5]);
    out.extend_from_slice(normed.scale_shift_last(&gamma5, &beta5).data());
    out.extend_from_slice(a.softmax_last().data());
    out.extend_from_slice(a.transpose().data());
    out.extend_from_slice(a.reduce_to_shape(&[5usize][..].into()).data());
    out.push(a.sum());
    out.push(a.mean());

    // Tape forward + backward: gradients flow through pooled helper
    // buffers (expand/scatter/sum-axis/softmax/layer-norm backward).
    let tape = Tape::new();
    let x = tape.leaf(fill(&[2, 6]));
    let w = tape.leaf(fill(&[6, 6]));
    let bias = tape.leaf(fill(&[6]));
    let gamma = tape.leaf(fill(&[6]));
    let beta = tape.leaf(fill(&[6]));
    let h = x.linear_act(&w, Some(&bias), Act::Sigmoid);
    let n = h.layer_norm_affine(&gamma, &beta, 1e-5);
    let s = n.matmul_t_scaled(&n, 0.25).softmax_last();
    let loss = s.matmul(&n).square().mean_all();
    loss.backward();
    out.push(loss.value().item());
    for v in [&x, &w, &bias, &gamma, &beta] {
        out.extend_from_slice(v.grad().data());
    }
    out
}

#[test]
fn poisoned_pool_is_invisible_to_results() {
    for seed in 0..6u64 {
        bufpool::clear();
        let clean = battery(seed);
        assert!(
            clean.iter().all(|v| v.is_finite()),
            "battery must be NaN-free on a clean pool"
        );
        poison_pool();
        let dirty = battery(seed);
        assert_eq!(clean.len(), dirty.len());
        for (i, (x, y)) in clean.iter().zip(&dirty).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "seed {seed}: value {i} differs after pool reuse: {x} vs {y}"
            );
        }
    }
    bufpool::clear();
}

#[test]
fn zeroed_allocations_ignore_poisoned_buffers() {
    bufpool::clear();
    poison_pool();
    for n in [1usize, 3, 17, 64, 1000, 4096] {
        let t = Tensor::zeros([n]);
        assert!(t.data().iter().all(|&v| v == 0.0), "zeros({n}) leaked stale values");
    }
    bufpool::clear();
}
