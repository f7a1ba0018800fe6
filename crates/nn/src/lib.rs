#![warn(missing_docs)]
// Structured output goes through mmp_obs; stray prints are denied in CI
// (the obs sinks and bin/ targets are the sanctioned exits).
#![cfg_attr(not(test), warn(clippy::print_stdout, clippy::print_stderr))]

//! Minimal CPU neural-network library for the MMP RL agent.
//!
//! The paper trains its actor-critic agent with PyTorch on a GPU; this crate
//! is the from-scratch substitute (DESIGN.md §3): dense [`Tensor`]s, a
//! blocked [`matmul()`](matmul::matmul), and the exact layer set of the paper's Table I —
//! [`Conv2d`] (+ same padding), [`BatchNorm2d`], ReLU, [`Linear`] and
//! softmax — each with a hand-derived backward pass, plus [`Sgd`]/[`Adam`]
//! optimizers. Layer widths are parameters, so the paper-scale network
//! (16×16×128, 10 ResBlocks) and laptop-scale test networks share all code.
//!
//! Weights and workspace are split: training goes through
//! [`Layer::forward`]/[`Layer::backward`] (`&mut self`, tape caches inside
//! the layer), while inference goes through [`Layer::infer`] (`&self`
//! weights + a caller-owned [`InferenceCtx`] holding every scratch buffer).
//! Inference inputs carry a leading batch axis N ≥ 1, so one shared network
//! can evaluate many states per call.
//!
//! # Example
//!
//! ```
//! use mmp_nn::{Conv2d, Layer, Tensor};
//!
//! let mut conv = Conv2d::new(3, 8, 3, 42); // 3→8 channels, 3×3 kernel
//! let input = Tensor::zeros(&[1, 3, 16, 16]);
//! let out = conv.forward(&input, true);
//! assert_eq!(out.shape(), &[1, 8, 16, 16]);
//! ```

pub mod activation;
pub mod batchnorm;
pub mod conv;
pub mod infer;
pub mod layer;
pub mod linear;
pub mod matmul;
pub mod optim;
pub mod sequential;
pub mod tensor;

pub use activation::{relu, relu_backward, softmax, Relu};
pub use batchnorm::BatchNorm2d;
pub use conv::Conv2d;
pub use infer::{InferenceCtx, KernelKind};
pub use layer::{Layer, Param};
pub use linear::Linear;
pub use matmul::matmul;
/// The deterministic pool the pooled training passes and batched
/// inference run on (re-exported so callers need no direct dependency).
pub use mmp_pool::ThreadPool;
pub use optim::{Adam, Optimizer, Sgd};
pub use sequential::Sequential;
pub use tensor::Tensor;
