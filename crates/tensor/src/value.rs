//! The forward-op surface shared by the taped [`Var`](crate::Var) and the
//! tape-free [`Tensor`].
//!
//! `impl Value for Tensor` below is the single definition of every op's
//! forward value. `impl Value for Var` (in `crate::tape`) computes each
//! output by calling it on the input values and then records one tape node,
//! so taped and tape-free forwards run the same arithmetic by construction.
//! The one exception is layer norm: the taped ops keep calling
//! [`Tensor::layer_norm_parts`] because backward needs the `inv_std` and
//! `normed` values it returns, while [`Tensor::layer_norm_affine`] is the
//! fused tape-free kernel (its doc states its bitwise contract).

use crate::shape::Shape;
use crate::tensor::{Act, Tensor};

/// The op surface a forward pass may use, implemented by the taped
/// [`Var`](crate::Var) and the tape-free [`Tensor`]. Semantics (and bit
/// patterns) of every op are identical between the two; only the
/// bookkeeping differs.
pub trait Value: Clone {
    /// Elementwise (broadcasting) addition.
    fn add(&self, other: &Self) -> Self;
    /// Elementwise (broadcasting) subtraction.
    fn sub(&self, other: &Self) -> Self;
    /// Elementwise (broadcasting) multiplication.
    fn mul(&self, other: &Self) -> Self;
    /// Elementwise (broadcasting) division.
    fn div(&self, other: &Self) -> Self;
    /// Negation.
    fn neg(&self) -> Self;
    /// Multiplication by a constant.
    fn scale(&self, c: f64) -> Self;
    /// Addition of a constant.
    fn add_scalar(&self, c: f64) -> Self;
    /// Matrix product (rank pairs as in [`Tensor::matmul`]).
    fn matmul(&self, other: &Self) -> Self;
    /// Swap of the last two dimensions.
    fn transpose(&self) -> Self;
    /// Shape reinterpretation (element count preserved).
    fn reshape(&self, shape: impl Into<Shape>) -> Self;
    /// Elementwise `exp`.
    fn exp(&self) -> Self;
    /// Elementwise natural log.
    fn ln(&self) -> Self;
    /// Elementwise square root.
    fn sqrt(&self) -> Self;
    /// Elementwise square.
    fn square(&self) -> Self;
    /// Elementwise absolute value (subgradient 0 at 0).
    fn abs(&self) -> Self;
    /// Logistic sigmoid.
    fn sigmoid(&self) -> Self;
    /// Hyperbolic tangent.
    fn tanh(&self) -> Self;
    /// Rectified linear unit.
    fn relu(&self) -> Self;
    /// Softmax over the last dimension.
    fn softmax_last(&self) -> Self;
    /// Layer normalization over the last dimension (no affine).
    fn layer_norm_last(&self, eps: f64) -> Self;
    /// Fused `act(self @ w + b)`, bitwise identical to the unfused chain.
    fn linear_act(&self, w: &Self, b: Option<&Self>, act: Act) -> Self;
    /// Fused `layer_norm(self) * gamma + beta`, bitwise identical to the
    /// unfused chain.
    fn layer_norm_affine(&self, gamma: &Self, beta: &Self, eps: f64) -> Self;
    /// Fused `(self @ other^T) * scale` (attention scores), bitwise
    /// identical to `self.matmul(&other.transpose()).scale(scale)`.
    fn matmul_t_scaled(&self, other: &Self, scale: f64) -> Self;
    /// Sum of all elements (rank-0 result).
    fn sum_all(&self) -> Self;
    /// Mean of all elements (rank-0 result).
    fn mean_all(&self) -> Self;
    /// Sum over the last dimension, dropping it.
    fn sum_last(&self) -> Self;
    /// Mean over the last dimension, dropping it.
    fn mean_last(&self) -> Self;
    /// Concatenation along the last dimension.
    fn concat_last(parts: &[Self]) -> Self;
    /// `len` columns of the last dimension starting at `start`.
    fn narrow_last(&self, start: usize, len: usize) -> Self;
    /// The current value as a plain tensor (O(1) shared-storage handle).
    fn value(&self) -> Tensor;
    /// The shape of the current value.
    fn shape(&self) -> Shape;

    /// Mean squared error against `target`: `mean((self - target)^2)`.
    fn mse(&self, target: &Self) -> Self {
        self.sub(target).square().mean_all()
    }
}

impl Value for Tensor {
    fn add(&self, other: &Self) -> Self {
        self.broadcast_zip(other, |a, b| a + b)
    }
    fn sub(&self, other: &Self) -> Self {
        self.broadcast_zip(other, |a, b| a - b)
    }
    fn mul(&self, other: &Self) -> Self {
        self.broadcast_zip(other, |a, b| a * b)
    }
    fn div(&self, other: &Self) -> Self {
        self.broadcast_zip(other, |a, b| a / b)
    }
    fn neg(&self) -> Self {
        self.map(|x| -x)
    }
    fn scale(&self, c: f64) -> Self {
        self.map(|x| x * c)
    }
    fn add_scalar(&self, c: f64) -> Self {
        self.map(|x| x + c)
    }
    fn matmul(&self, other: &Self) -> Self {
        Tensor::matmul(self, other)
    }
    fn transpose(&self) -> Self {
        Tensor::transpose(self)
    }
    fn reshape(&self, shape: impl Into<Shape>) -> Self {
        Tensor::reshape(self, shape)
    }
    fn exp(&self) -> Self {
        self.map(f64::exp)
    }
    fn ln(&self) -> Self {
        self.map(f64::ln)
    }
    fn sqrt(&self) -> Self {
        self.map(f64::sqrt)
    }
    fn square(&self) -> Self {
        self.map(|x| x * x)
    }
    fn abs(&self) -> Self {
        self.map(f64::abs)
    }
    fn sigmoid(&self) -> Self {
        self.map(|x| 1.0 / (1.0 + (-x).exp()))
    }
    fn tanh(&self) -> Self {
        self.map(f64::tanh)
    }
    fn relu(&self) -> Self {
        self.map(|x| x.max(0.0))
    }
    fn softmax_last(&self) -> Self {
        Tensor::softmax_last(self)
    }
    fn layer_norm_last(&self, eps: f64) -> Self {
        self.layer_norm_parts(eps).0
    }
    fn linear_act(&self, w: &Self, b: Option<&Self>, act: Act) -> Self {
        self.matmul_bias_act(w, b, act)
    }
    fn layer_norm_affine(&self, gamma: &Self, beta: &Self, eps: f64) -> Self {
        Tensor::layer_norm_affine(self, gamma, beta, eps)
    }
    fn matmul_t_scaled(&self, other: &Self, scale: f64) -> Self {
        self.matmul_nt_scaled(other, scale)
    }
    fn sum_all(&self) -> Self {
        Tensor::scalar(self.sum())
    }
    fn mean_all(&self) -> Self {
        Tensor::scalar(self.mean())
    }
    fn sum_last(&self) -> Self {
        Tensor::sum_last(self)
    }
    fn mean_last(&self) -> Self {
        Tensor::mean_last(self)
    }
    fn concat_last(parts: &[Self]) -> Self {
        let refs: Vec<&Tensor> = parts.iter().collect();
        Tensor::concat_last(&refs)
    }
    fn narrow_last(&self, start: usize, len: usize) -> Self {
        Tensor::narrow_last(self, start, len)
    }
    fn value(&self) -> Tensor {
        self.clone()
    }
    fn shape(&self) -> Shape {
        *Tensor::shape(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::{Tape, Var};

    /// Bitwise slice equality (NaN == NaN, unlike `f64` equality).
    fn assert_bits_eq(a: &Tensor, b: &Tensor, name: &str) {
        assert_eq!(a.shape(), b.shape(), "{name}: shape");
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(a), bits(b), "{name}");
    }

    /// Deterministic pseudo-random tensor in `[-1, 1)`.
    fn pseudo(shape: impl Into<Shape>, seed: u64) -> Tensor {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        Tensor::from_fn(shape, |_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 2000) as f64 / 1000.0 - 1.0
        })
    }

    /// Every `Value` method, taped and tape-free, on the same inputs. `ln`
    /// and `sqrt` see negative inputs, so NaNs must match bit for bit too.
    #[test]
    fn tensor_ops_match_var_ops_bitwise() {
        let a = pseudo([2, 3, 4], 1);
        let b = pseudo([2, 3, 4], 2);
        let c = pseudo([2, 3, 2], 7);
        let w = pseudo([4, 5], 3);
        let bias = pseudo([5], 4);
        let gamma = pseudo([4], 5);
        let beta = pseudo([4], 6);

        let tape = Tape::new();
        let (va, vb, vc) = (tape.leaf(a.clone()), tape.leaf(b.clone()), tape.leaf(c.clone()));
        let (vw, vbias) = (tape.leaf(w.clone()), tape.leaf(bias.clone()));
        let (vg, vbeta) = (tape.leaf(gamma.clone()), tape.leaf(beta.clone()));

        #[allow(clippy::type_complexity)]
        let unary: &[(&str, fn(&Tensor) -> Tensor, fn(&Var) -> Var)] = &[
            ("neg", |x| x.neg(), |x| x.neg()),
            ("scale", |x| x.scale(0.37), |x| x.scale(0.37)),
            ("add_scalar", |x| x.add_scalar(-0.2), |x| x.add_scalar(-0.2)),
            ("transpose", |x| Value::transpose(x), |x| x.transpose()),
            ("reshape", |x| Value::reshape(x, [6, 4]), |x| x.reshape([6, 4])),
            ("exp", |x| x.exp(), |x| x.exp()),
            ("ln", |x| x.ln(), |x| x.ln()),
            ("sqrt", |x| x.sqrt(), |x| x.sqrt()),
            ("square", |x| x.square(), |x| x.square()),
            ("abs", |x| x.abs(), |x| x.abs()),
            ("sigmoid", |x| x.sigmoid(), |x| x.sigmoid()),
            ("tanh", |x| x.tanh(), |x| x.tanh()),
            ("relu", |x| x.relu(), |x| x.relu()),
            ("softmax_last", |x| Value::softmax_last(x), |x| x.softmax_last()),
            ("layer_norm_last", |x| x.layer_norm_last(1e-5), |x| x.layer_norm_last(1e-5)),
            ("sum_all", |x| x.sum_all(), |x| x.sum_all()),
            ("mean_all", |x| x.mean_all(), |x| x.mean_all()),
            ("sum_last", |x| Value::sum_last(x), |x| x.sum_last()),
            ("mean_last", |x| Value::mean_last(x), |x| x.mean_last()),
            ("narrow_last", |x| Value::narrow_last(x, 1, 2), |x| x.narrow_last(1, 2)),
        ];
        for (name, tf, vf) in unary {
            assert_bits_eq(&tf(&a), &vf(&va).value(), name);
        }

        #[allow(clippy::type_complexity)]
        let binary: &[(&str, fn(&Tensor, &Tensor) -> Tensor, fn(&Var, &Var) -> Var)] = &[
            ("add", |x, y| x.add(y), |x, y| x.add(y)),
            ("sub", |x, y| x.sub(y), |x, y| x.sub(y)),
            ("mul", |x, y| x.mul(y), |x, y| x.mul(y)),
            ("div", |x, y| x.div(y), |x, y| x.div(y)),
            ("matmul_t_scaled", |x, y| x.matmul_t_scaled(y, 0.5), |x, y| {
                x.matmul_t_scaled(y, 0.5)
            }),
            ("mse", |x, y| x.mse(y), |x, y| x.mse(y)),
        ];
        for (name, tf, vf) in binary {
            assert_bits_eq(&tf(&a, &b), &vf(&va, &vb).value(), name);
        }

        assert_bits_eq(&Value::matmul(&a, &w), &va.matmul(&vw).value(), "matmul");
        assert_bits_eq(
            &a.linear_act(&w, Some(&bias), Act::Tanh),
            &va.linear_act(&vw, Some(&vbias), Act::Tanh).value(),
            "linear_act",
        );
        assert_bits_eq(
            &a.linear_act(&w, None, Act::Relu),
            &va.linear_act(&vw, None, Act::Relu).value(),
            "linear_act (no bias)",
        );
        assert_bits_eq(
            &Value::layer_norm_affine(&a, &gamma, &beta, 1e-5),
            &va.layer_norm_affine(&vg, &vbeta, 1e-5).value(),
            "layer_norm_affine",
        );
        assert_bits_eq(
            &Value::concat_last(&[a.clone(), b.clone(), c.clone()]),
            &Value::concat_last(&[va.clone(), vb.clone(), vc.clone()]).value(),
            "concat_last",
        );
        assert_bits_eq(&Value::value(&a), &Value::value(&va), "value");
        assert_eq!(Value::shape(&a), Value::shape(&va), "shape");
    }
}
