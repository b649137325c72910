//! # tranad-tensor
//!
//! A minimal, dependency-free dense tensor library with tape-based
//! reverse-mode automatic differentiation, written as the deep-learning
//! substrate for the TranAD reproduction.
//!
//! The design mirrors what the TranAD paper needs and nothing more:
//!
//! - [`Tensor`]: dense row-major `f64` storage of arbitrary rank with
//!   NumPy-style broadcasting, 2-d/batched matmul, softmax, layer-norm
//!   building blocks, concatenation and narrowing along the feature axis.
//! - [`Tape`] / [`Var`]: eager operator recording and reverse-mode
//!   differentiation. A fresh tape per training step; model parameters live
//!   outside and are re-introduced as leaves.
//! - [`Value`]: the forward-op surface both run through. `impl Value for
//!   Tensor` defines every op's forward value once; `Var` calls it and
//!   records the tape node.
//! - [`buf`] / [`bufpool`]: shared, copy-on-write tensor storage backed by
//!   a thread-local buffer pool — tensor clones are O(1) and steady-state
//!   training steps recycle buffers instead of allocating.
//! - [`check`]: finite-difference gradient checking used across the
//!   workspace's tests.
//! - [`kernels`]: packed, register-tiled matmul micro-kernels (and the
//!   naive `reference_*` forms they are tested bitwise-equal to).
//! - [`pool`]: a from-scratch thread pool driving the matmul/elementwise
//!   hot paths (`TRANAD_THREADS` to override sizing; results are bitwise
//!   identical for any thread count).
//! - [`rng`]: the workspace's seeded SplitMix64 generator (keeps the build
//!   hermetic — no external `rand`).
//!
//! ## Example
//!
//! ```
//! use tranad_tensor::{Tape, Tensor, Value};
//!
//! let tape = Tape::new();
//! let w = tape.leaf(Tensor::from_vec(vec![0.5, -0.5], [1, 2]));
//! let x = tape.leaf(Tensor::from_vec(vec![2.0], [1, 1]));
//! let y = x.matmul(&w).sigmoid();
//! let loss = y.square().mean_all();
//! loss.backward();
//! assert_eq!(w.grad().shape().dims(), &[1, 2]);
//! ```

pub mod buf;
pub mod bufpool;
pub mod check;
pub mod kernels;
pub mod pool;
pub mod rng;
pub mod shape;
pub mod tape;
pub mod tensor;
pub mod value;

pub use rng::Rng;
pub use shape::Shape;
pub use tape::{Tape, Var};
pub use tensor::{Act, Tensor};
pub use value::Value;
