//! Property test: the packed, register-tiled micro-kernels are bitwise
//! equal to the retained `reference_*` kernels — the pre-tiling naive
//! loops — over randomized shapes including ragged tails, at every level
//! (raw kernel calls, `Tensor` ops, and tape backward), and across thread
//! counts.
//!
//! Style mirrors `crates/tranad/tests/determinism.rs`: seeded loops over
//! many cases, `pool::with_threads(1)` vs `with_threads(8)` comparisons,
//! and `to_bits()` equality (NaN-safe, tolerance-free). Run it under both
//! `TRANAD_THREADS=1` and `=8` (verify.sh does) to also cover the
//! pool-sizing environment axis.

use tranad_tensor::kernels::{self, Epilogue};
use tranad_tensor::{pool, Act, Rng, Tape, Tensor, Value};

const CASES: u64 = 48;

fn bits_eq(label: &str, a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "{label}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{label}: element {i} differs bitwise: {x} vs {y}"
        );
    }
}

fn randomized(rng: &mut Rng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.normal()).collect()
}

/// Raw kernel parity on ragged shapes `n, k, m ∈ 1..33`: packed and direct
/// tiled drivers, the fused epilogue, and the nt/tn kernels all reproduce
/// the reference loops bitwise.
#[test]
fn tiled_kernels_match_reference_over_ragged_shapes() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let n = 1 + (rng.next_u64() % 32) as usize;
        let k = 1 + (rng.next_u64() % 32) as usize;
        let m = 1 + (rng.next_u64() % 32) as usize;
        let a = randomized(&mut rng, n * k);
        let b = randomized(&mut rng, k * m);

        let mut rf = vec![0.0; n * m];
        kernels::reference_matmul(&a, &b, &mut rf, n, k, m);

        let mut direct = vec![f64::NAN; n * m];
        kernels::matmul_tiled_direct(&a, &b, &mut direct, n, k, m, Epilogue::NONE);
        bits_eq(&format!("direct {n}x{k}x{m} case {case}"), &rf, &direct);

        let mut packed_b = vec![f64::NAN; k * m];
        kernels::pack_rhs(&b, k, m, &mut packed_b);
        let mut packed = vec![f64::NAN; n * m];
        kernels::matmul_tiled_packed(&a, &packed_b, &mut packed, n, k, m, Epilogue::NONE);
        bits_eq(&format!("packed {n}x{k}x{m} case {case}"), &rf, &packed);

        // Fused epilogue vs reference matmul + serial bias/act pass.
        let bias = randomized(&mut rng, m);
        let act = [Act::Identity, Act::Relu, Act::Sigmoid, Act::Tanh][(case % 4) as usize];
        let mut rf_epi = rf.clone();
        kernels::reference_bias_act(&mut rf_epi, m, Some(&bias), act);
        let mut fused = vec![f64::NAN; n * m];
        let epi = Epilogue { bias: Some(&bias), act };
        kernels::matmul_tiled_packed(&a, &packed_b, &mut fused, n, k, m, epi);
        bits_eq(&format!("epilogue {act:?} {n}x{k}x{m} case {case}"), &rf_epi, &fused);

        // nt: a[n,k] @ bt[m,k]^T * scale.
        let bt = randomized(&mut rng, m * k);
        let scale = 1.0 / (1 + case % 5) as f64;
        let mut rf_nt = vec![0.0; n * m];
        kernels::reference_matmul_nt(&a, &bt, &mut rf_nt, n, k, m, scale);
        let mut nt = vec![f64::NAN; n * m];
        kernels::matmul_nt_tiled(&a, &bt, &mut nt, n, k, m, scale);
        bits_eq(&format!("nt {n}x{k}x{m} case {case}"), &rf_nt, &nt);

        // tn: a[n,k]^T @ g[n,m].
        let g = randomized(&mut rng, n * m);
        let mut rf_tn = vec![0.0; k * m];
        kernels::reference_matmul_tn(&a, k, &g, &mut rf_tn, n, k, m);
        let mut tn = vec![f64::NAN; k * m];
        kernels::matmul_tn_tiled(&a, k, &g, &mut tn, n, k, m);
        bits_eq(&format!("tn {n}x{k}x{m} case {case}"), &rf_tn, &tn);
    }
}

/// Tensor-level parity over batched and unbatched shapes, small ragged
/// sizes and cutoff-crossing sizes, at 1 vs 8 threads. The reference is
/// computed per plane with the naive kernels.
#[test]
fn tensor_matmuls_match_reference_at_1_and_8_threads() {
    for case in 0..12u64 {
        let mut rng = Rng::new(1000 + case);
        // Alternate small ragged shapes with shapes big enough to cross
        // both the parallel cutoff and the packing threshold.
        let (b, n, k, m) = if case % 2 == 0 {
            (
                1 + (rng.next_u64() % 4) as usize,
                1 + (rng.next_u64() % 32) as usize,
                1 + (rng.next_u64() % 32) as usize,
                1 + (rng.next_u64() % 32) as usize,
            )
        } else {
            (
                2 + (rng.next_u64() % 3) as usize,
                48 + (rng.next_u64() % 32) as usize,
                48 + (rng.next_u64() % 17) as usize,
                48 + (rng.next_u64() % 23) as usize,
            )
        };
        let a2 = Tensor::from_fn([b * n, k], |_| rng.normal());
        let b2 = Tensor::from_fn([k, m], |_| rng.normal());
        let a3 = a2.reshape([b, n, k]);
        let b3 = Tensor::from_fn([b, k, m], |_| rng.normal());
        let g3 = Tensor::from_fn([b, n, m], |_| rng.normal());
        let bias = Tensor::from_fn([m], |_| rng.normal());

        // Reference results, plane by plane with the naive kernels.
        let mut rf_22 = vec![0.0; b * n * m];
        kernels::reference_matmul(a2.data(), b2.data(), &mut rf_22, b * n, k, m);
        let mut rf_33 = vec![0.0; b * n * m];
        let mut rf_tn = vec![0.0; b * k * m];
        for bi in 0..b {
            kernels::reference_matmul(
                &a3.data()[bi * n * k..(bi + 1) * n * k],
                &b3.data()[bi * k * m..(bi + 1) * k * m],
                &mut rf_33[bi * n * m..(bi + 1) * n * m],
                n,
                k,
                m,
            );
            kernels::reference_matmul_tn(
                &a3.data()[bi * n * k..(bi + 1) * n * k],
                k,
                &g3.data()[bi * n * m..(bi + 1) * n * m],
                &mut rf_tn[bi * k * m..(bi + 1) * k * m],
                n,
                k,
                m,
            );
        }
        let mut rf_fused = rf_22.clone();
        kernels::reference_bias_act(&mut rf_fused, m, Some(bias.data()), Act::Tanh);
        let mut rf_nt = vec![0.0; n * m];
        // nt on the first plane of a3 against a [m, k] rhs.
        let bt = Tensor::from_fn([m, k], |_| rng.normal());
        kernels::reference_matmul_nt(
            &a3.data()[..n * k],
            bt.data(),
            &mut rf_nt,
            n,
            k,
            m,
            0.5,
        );
        let a_plane = Tensor::from_vec(a3.data()[..n * k].to_vec(), [n, k]);

        for threads in [1usize, 8] {
            pool::with_threads(threads, || {
                let label = |op: &str| format!("{op} case {case} threads {threads}");
                bits_eq(&label("matmul(2,2)"), a2.matmul(&b2).data(), &rf_22);
                bits_eq(&label("matmul(3,2)"), a3.matmul(&b2).data(), &rf_22);
                bits_eq(&label("matmul(3,3)"), a3.matmul(&b3).data(), &rf_33);
                bits_eq(
                    &label("matmul_bias_act"),
                    a2.matmul_bias_act(&b2, Some(&bias), Act::Tanh).data(),
                    &rf_fused,
                );
                bits_eq(
                    &label("matmul_nt_scaled"),
                    a_plane.matmul_nt_scaled(&bt, 0.5).data(),
                    &rf_nt,
                );
                bits_eq(&label("matmul_tn(3,3)"), a3.matmul_tn(&g3).data(), &rf_tn);
                // matmul_tn must also match the materialized-transpose chain
                // it replaces in the tape backward.
                bits_eq(
                    &label("matmul_tn vs transpose"),
                    a3.matmul_tn(&g3).data(),
                    a3.transpose().matmul(&g3).data(),
                );
            });
        }
    }
}

/// The transpose-free grad-matmul rewiring: backward gradients through
/// `matmul` (all rank combinations) and `matmul_t_scaled` stay bitwise
/// stable between 1 and 8 threads, and `matmul_nt_scaled(b, 1.0)` /
/// `matmul_tn` match the `transpose()`-based chains they replaced.
#[test]
fn tape_grad_matmuls_are_thread_invariant() {
    let grads = |threads: usize, seed: u64| {
        pool::with_threads(threads, || {
            let mut rng = Rng::new(seed);
            let tape = Tape::new();
            let x2 = tape.leaf(Tensor::from_fn([60, 20], |_| rng.normal()));
            let w = tape.leaf(Tensor::from_fn([20, 48], |_| rng.normal()));
            let x3 = tape.leaf(Tensor::from_fn([4, 30, 48], |_| rng.normal()));
            let w2 = tape.leaf(Tensor::from_fn([48, 20], |_| rng.normal()));
            let b3 = tape.leaf(Tensor::from_fn([4, 20, 9], |_| rng.normal()));
            let q = tape.leaf(Tensor::from_fn([4, 30, 16], |_| rng.normal()));
            let kk = tape.leaf(Tensor::from_fn([4, 30, 16], |_| rng.normal()));

            let h = x2.matmul(&w); // (2,2)
            let h3 = x3.matmul(&w2); // (3,2)
            let hb = h3.matmul(&b3); // (3,3)
            let scores = q.matmul_t_scaled(&kk, 0.25); // MatmulTScale
            let loss = h
                .square()
                .mean_all()
                .add(&hb.square().mean_all())
                .add(&scores.square().mean_all());
            loss.backward();
            let mut out = vec![loss.value().item()];
            for v in [&x2, &w, &x3, &w2, &b3, &q, &kk] {
                out.extend_from_slice(v.grad().data());
            }
            out
        })
    };
    for seed in 0..4u64 {
        let g1 = grads(1, seed);
        let g8 = grads(8, seed);
        bits_eq(&format!("tape grads seed {seed}"), &g1, &g8);
    }

    // nt(scale=1) and tn vs the transpose chains, including non-finite
    // values (x * 1.0 must stay a bitwise identity).
    let mut rng = Rng::new(7);
    let mut a = Tensor::from_fn([10, 6], |_| rng.normal());
    a.data_mut()[3] = f64::NAN;
    a.data_mut()[8] = f64::INFINITY;
    a.data_mut()[11] = -0.0;
    let b = Tensor::from_fn([9, 6], |_| rng.normal());
    bits_eq(
        "nt scale=1 vs transpose chain",
        a.matmul_nt_scaled(&b, 1.0).data(),
        a.matmul(&b.transpose()).data(),
    );
    let g = Tensor::from_fn([10, 9], |_| rng.normal());
    bits_eq(
        "tn vs transpose chain",
        a.matmul_tn(&g).data(),
        a.transpose().matmul(&g).data(),
    );
}
