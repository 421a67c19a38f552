//! Minimal neural-network training framework for the `ams-dnn` workspace.
//!
//! This crate is the Rust stand-in for the PyTorch/Distiller substrate used
//! by Rekhi et al. (DAC 2019). It provides explicit forward/backward layers
//! (no autograd tape), which makes the paper's two surgical requirements
//! trivial to express:
//!
//! 1. *inject AMS error in the forward pass only, leaving the backward pass
//!    untouched* (paper §2), and
//! 2. *straight-through estimators* for quantizers (gradients pass through
//!    the non-differentiable rounding).
//!
//! # Contents
//!
//! * [`Layer`] — the forward/backward contract; [`Mode`] selects
//!   training vs evaluation behaviour (batch-norm statistics, caching).
//! * Layers: [`BatchNorm2d`], [`ClippedRelu`] (DoReFa's ReLU that clips
//!   at 1), [`MaxPool2d`], [`GlobalAvgPool`], [`Flatten`]. The
//!   convolutions and fully-connected layers are the quantized/AMS ones
//!   in `ams-models`.
//! * [`softmax_cross_entropy`] — loss and logits gradient in one pass.
//! * [`Sgd`] — SGD with momentum and weight decay, honouring
//!   [`Param::frozen`] (the paper's Table 2 selective-freezing study).
//! * [`Checkpoint`] — named-tensor state save/load (JSON), used to move
//!   weights between the FP32 network and its quantized/AMS twin.
//! * [`functional`] — the convolution/linear cores of the quantized
//!   layers in `ams-models`.
//!
//! # Example
//!
//! ```
//! use ams_nn::{softmax_cross_entropy, BatchNorm2d, Layer, Mode, Sgd};
//! use ams_tensor::{ExecCtx, Tensor};
//!
//! let ctx = ExecCtx::serial();
//! let mut bn = BatchNorm2d::new("bn", 3);
//! let x = Tensor::from_vec(&[2, 3, 1, 1], vec![0.5, 1.0, -1.0, 2.0, 0.0, 1.0]).unwrap();
//! let logits = bn.forward(&ctx, &x, Mode::Train).reshaped(&[2, 3]);
//! let (loss, dlogits) = softmax_cross_entropy(&logits, &[0, 2]);
//! assert!(loss > 0.0);
//! bn.backward(&ctx, &dlogits.reshaped(&[2, 3, 1, 1]));
//! Sgd::new(0.1).step(&mut bn);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activations;
mod batchnorm;
mod checkpoint;
mod container;
pub mod functional;
mod layer;
mod loss;
mod optim;
mod param;
mod pool;

pub use activations::ClippedRelu;
pub use ams_tensor::{ExecCtx, Parallelism};
pub use batchnorm::BatchNorm2d;
pub use checkpoint::{Checkpoint, LoadError};
pub use container::Flatten;
pub use layer::{Layer, Mode};
pub use loss::{accuracy, softmax_cross_entropy};
pub use optim::Sgd;
pub use param::Param;
pub use pool::{GlobalAvgPool, MaxPool2d};
