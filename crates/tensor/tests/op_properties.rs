//! Property-based tests for tensor algebra and autograd: algebraic
//! identities, gradient linearity, and broadcast/reduce duality.
//!
//! Cases are generated with the crate's own seeded [`Rng`] (no `proptest`
//! dependency): each property is checked over a few dozen random inputs,
//! and every assertion message carries the case number, which doubles as
//! the seed for reproduction.

use tranad_tensor::check::check_gradients;
use tranad_tensor::{Rng, Shape, Tape, Tensor, Value};

const CASES: u64 = 48;

fn random_vec(rng: &mut Rng, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..n).map(|_| rng.range_f64(lo, hi)).collect()
}

#[test]
fn matmul_distributes_over_addition() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let a = Tensor::from_vec(random_vec(&mut rng, 6, -3.0, 3.0), [2, 3]);
        let b = Tensor::from_vec(random_vec(&mut rng, 6, -3.0, 3.0), [3, 2]);
        let c = Tensor::from_vec(random_vec(&mut rng, 6, -3.0, 3.0), [3, 2]);
        let lhs = a.matmul(&b.zip(&c, |x, y| x + y));
        let rhs = a.matmul(&b).zip(&a.matmul(&c), |x, y| x + y);
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            assert!((x - y).abs() < 1e-9, "case {case}: {x} vs {y}");
        }
    }
}

#[test]
fn transpose_involution() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let t = Tensor::from_vec(random_vec(&mut rng, 12, -3.0, 3.0), [3, 4]);
        let round_trip = t.transpose().transpose();
        assert_eq!(round_trip.data(), t.data(), "case {case}");
    }
}

#[test]
fn matmul_transpose_identity() {
    // (A B)^T = B^T A^T
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let a = Tensor::from_vec(random_vec(&mut rng, 6, -3.0, 3.0), [2, 3]);
        let b = Tensor::from_vec(random_vec(&mut rng, 6, -3.0, 3.0), [3, 2]);
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            assert!((x - y).abs() < 1e-9, "case {case}: {x} vs {y}");
        }
    }
}

#[test]
fn gradient_is_linear_in_seed_scale() {
    // d(s * f)/dx = s * df/dx
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let x = Tensor::from_vec(random_vec(&mut rng, 8, -3.0, 3.0), [2, 4]);
        let s = rng.range_f64(0.1, 5.0);
        let tape1 = Tape::new();
        let x1 = tape1.leaf(x.clone());
        x1.tanh().mean_all().backward();
        let g1 = x1.grad();

        let tape2 = Tape::new();
        let x2 = tape2.leaf(x.clone());
        x2.tanh().mean_all().scale(s).backward();
        let g2 = x2.grad();

        for (a, b) in g1.data().iter().zip(g2.data()) {
            assert!((a * s - b).abs() < 1e-9, "case {case}: {a}*{s} vs {b}");
        }
    }
}

#[test]
fn sum_all_equals_sum_last_chain() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let t = Tensor::from_vec(random_vec(&mut rng, 12, -3.0, 3.0), [3, 4]);
        let tape = Tape::new();
        let x = tape.leaf(t.clone());
        let direct = x.sum_all().value().item();
        let chained = x.sum_last().sum_all().value().item();
        assert!((direct - chained).abs() < 1e-9, "case {case}");
    }
}

#[test]
fn broadcast_then_reduce_is_scaling() {
    // Broadcasting [4] over [rows, 4] and reducing back multiplies by rows.
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let small = Tensor::from_vec(random_vec(&mut rng, 4, -3.0, 3.0), [4]);
        let rows = rng.range_usize(1, 6);
        let big = Tensor::ones([rows, 4]);
        let summed = big
            .broadcast_zip(&small, |a, b| a * b)
            .reduce_to_shape(&Shape::new([4]));
        for (x, y) in summed.data().iter().zip(small.data()) {
            assert!((x - y * rows as f64).abs() < 1e-9, "case {case}");
        }
    }
}

#[test]
fn layer_norm_is_shift_invariant() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let v = random_vec(&mut rng, 8, -3.0, 3.0);
        let shift = rng.range_f64(-5.0, 5.0);
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(v.clone(), [2, 4]));
        let b = tape.leaf(Tensor::from_vec(
            v.iter().map(|x| x + shift).collect::<Vec<_>>(),
            [2, 4],
        ));
        let na = a.layer_norm_last(1e-8).value();
        let nb = b.layer_norm_last(1e-8).value();
        for (x, y) in na.data().iter().zip(nb.data()) {
            assert!((x - y).abs() < 1e-6, "case {case}: {x} vs {y}");
        }
    }
}

#[test]
fn relu_grad_matches_numeric() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        // Keep values away from the kink where the subgradient is ambiguous.
        let v: Vec<f64> = random_vec(&mut rng, 6, -2.0, 2.0)
            .into_iter()
            .map(|x| if x.abs() < 0.05 { x + 0.1 } else { x })
            .collect();
        let x = Tensor::from_vec(v, [6]);
        let checks = check_gradients(&[x], 1e-6, |_t, vars| vars[0].relu().sum_all());
        assert!(checks[0].max_abs_diff < 1e-4, "case {case}");
    }
}

#[test]
fn concat_gradient_splits() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(random_vec(&mut rng, 4, -3.0, 3.0), [1, 4]));
        let b = tape.leaf(Tensor::from_vec(random_vec(&mut rng, 4, -3.0, 3.0), [1, 4]));
        let cat = tranad_tensor::Var::concat_last(&[a.clone(), b.clone()]);
        cat.square().sum_all().backward();
        // Each input's gradient is 2x of itself (d sum(x^2) = 2x).
        let (ga, va) = (a.grad(), a.value());
        for (g, x) in ga.data().iter().zip(va.data()) {
            assert!((g - 2.0 * x).abs() < 1e-9, "case {case}");
        }
        let (gb, vb) = (b.grad(), b.value());
        for (g, x) in gb.data().iter().zip(vb.data()) {
            assert!((g - 2.0 * x).abs() < 1e-9, "case {case}");
        }
    }
}
