//! Networks with DoReFa quantization and AMS error-injection surgery.
//!
//! This crate assembles the substrates (`ams-nn`, `ams-quant`, `ams-core`)
//! into the models the paper experiments on:
//!
//! * [`QConv2d`] / [`QLinear`] — quantized layers that replicate the
//!   paper's Fig. 3 exactly: the input activations are quantized to `B_X`
//!   bits, the shadow FP32 weights are DoReFa-quantized to `B_W` bits
//!   every forward pass (gradients routed back through the straight-through
//!   estimator), and the AMS error of Eq. 2 is added to the layer output —
//!   in the forward pass only. Both are a geometry over one shared
//!   [`AnalogGemm`] core, which owns that whole policy.
//! * [`ResNetMini`] — the ResNet-50 stand-in: conv stem, three stages of
//!   residual [`BasicBlock`]s with batch norm, global average pooling and
//!   a fully-connected classifier. Built from a [`HardwareConfig`], the
//!   same architecture serves as the FP32 baseline (identity quantizers),
//!   the quantized digital baseline (Table 1), and the AMS network
//!   (Figs. 4–6, Table 2).
//! * [`LeNet5`] — a small LeNet-style conv net; with [`ResNetMini`] it
//!   forms the model zoo behind [`ModelSpec`], the topology-agnostic seam
//!   the experiment runner builds against.
//! * [`FreezePolicy`] — the Table 2 selective-freezing study.
//! * Activation probes — per-layer output means across a dataset (Fig. 6).
//!
//! # Example
//!
//! ```
//! use ams_models::{HardwareConfig, ResNetMini, ResNetMiniConfig};
//! use ams_nn::{Layer, Mode};
//! use ams_tensor::{ExecCtx, Tensor};
//!
//! let arch = ResNetMiniConfig::tiny();
//! let mut net = ResNetMini::new(&arch, &HardwareConfig::fp32());
//! let x = Tensor::zeros(&[2, 3, 8, 8]);
//! let logits = net.forward(&ExecCtx::serial(), &x, Mode::Eval);
//! assert_eq!(logits.dims(), &[2, arch.classes]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analog;
mod block;
mod config;
mod freeze;
mod frozen;
mod lenet;
mod qconv;
mod qlinear;
mod resnet;
mod spec;
pub mod surgery;

pub use ams_core::error_model::{ErrorModelConfig, ErrorModelKind, LayerError};
pub use analog::AnalogGemm;
pub use block::BasicBlock;
pub use config::{HardwareConfig, InputKind};
pub use freeze::FreezePolicy;
pub use frozen::{FrozenLayerWeights, SharedModelWeights};
pub use lenet::{LeNet5, LeNet5Config};
pub use qconv::QConv2d;
pub use qlinear::QLinear;
pub use resnet::{ResNetMini, ResNetMiniConfig};
pub use spec::{AmsModel, ModelKind, ModelSpec};
pub use surgery::{fold_bn_into_conv, EnergyReport, LayerEnergy};
