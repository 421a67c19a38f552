//! Dense `f32` tensor substrate for the `ams-dnn` workspace.
//!
//! This crate is the numerical foundation under the reproduction of
//! *"Analog/Mixed-Signal Hardware Error Modeling for Deep Learning
//! Inference"* (Rekhi et al., DAC 2019). It provides exactly the pieces a
//! small convolutional-network training framework needs on a CPU:
//!
//! * [`Tensor`] — an owned, contiguous, row-major n-dimensional `f32` array
//!   with elementwise arithmetic, reductions and reshaping;
//! * [`matmul`], [`matmul_at_b`], [`matmul_a_bt`] — cache-blocked matrix
//!   products (the backbone of im2col convolution and its backward pass);
//! * [`im2col`] / [`col2im`] — lowering of NCHW convolutions to matrix
//!   products and its adjoint scatter; the convolution itself lowers one
//!   image at a time ([`Im2colPanel`], [`conv_input_grad_in`],
//!   [`conv_weight_grad_in`]);
//! * [`rng`] — seeded random sources, a Box–Muller Gaussian, and the weight
//!   initializers (Kaiming / Xavier) used by the network layers;
//! * [`exec`] — the [`ExecCtx`] execution context threaded through the
//!   whole stack: a scoped worker pool with deterministic (bit-identical
//!   for any thread count) parallel dispatch, and the counter-derived
//!   RNG-stream allocator [`noise_stream_seed`].
//!
//! # Example
//!
//! ```
//! use ams_tensor::{Tensor, matmul};
//!
//! # fn main() -> Result<(), ams_tensor::TensorError> {
//! let a = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])?;
//! let b = Tensor::from_vec(&[3, 2], vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0])?;
//! let c = matmul(&a, &b);
//! assert_eq!(c.dims(), &[2, 2]);
//! assert_eq!(c.data(), &[4.0, 5.0, 10.0, 11.0]);
//! # Ok(())
//! # }
//! ```
//!
//! Design notes: all data is `f32` (matching the paper's FP32 baseline and
//! the fact that quantization is *simulated* in floating point, as in
//! Distiller/DoReFa); shapes are validated eagerly and shape errors either
//! return [`TensorError`] (constructors, reshape) or panic with a precise
//! message (hot-path operators, documented under *Panics*).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conv;
pub mod exec;
mod matmul;
pub mod matmul_i8;
mod ops;
pub mod rng;
mod shape;
mod tensor;
mod workspace;

/// Re-export of the metrics layer so downstream crates can record through
/// `ExecCtx::metrics()` without a direct `ams-obs` dependency.
pub use ams_obs as obs;
pub use ams_obs::MetricsSink;
pub use conv::{
    code_im2row_i16_in, col2im, conv_input_grad_in, conv_weight_grad_in, im2col, im2col_in,
    mat_to_nchw, mat_to_nchw_in, ConvGeom, Im2colPanel,
};
pub use exec::{noise_stream_seed, ExecCtx, KernelDispatch, Parallelism};
pub use matmul::{
    matmul, matmul_a_bt, matmul_a_bt_in, matmul_a_bt_reference, matmul_at_b, matmul_at_b_in,
    matmul_at_b_reference, matmul_hinted_in, matmul_in, matmul_reference, pack_rhs_in, Density,
    PackedLhs,
};
pub use matmul_i8::{
    code_rows_i16_in, matmul_i8_a_bt_in, matmul_i8_in, matmul_i8_panels_in, matmul_i8_reference,
    pack_cols_i16, pack_rows_i16, quantize_symmetric_i8, unpack_cols_i16, unpack_rows_i16,
};
pub use shape::{ShapeExt, TensorError};
pub use tensor::Tensor;
pub use workspace::{I16Panel, Workspace};
