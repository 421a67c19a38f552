//! Frozen eval weights: what programmed hardware serves inferences from.
//!
//! An analog layer's eval weights are one pure function of its shadow
//! FP32 weights and the inference time `t`: the quantized weights with the
//! error model's weight realization folded in (mismatch, programming
//! noise, drift at `t`). [`FrozenLayerWeights`] is that function's cached
//! value for one layer (the f32 weight matrix plus, when the widths allow,
//! the pre-coded i8 form). Every eval forward reads it: the first builds
//! it, and the layer drops it on any mutable access to the shadow weight
//! (optimizer step, checkpoint load, gradient zeroing) and on any bitwise
//! change of `t`. Training never reads it — the shadows move every step.
//!
//! [`SharedModelWeights`] collects the whole network's layers behind
//! `Arc`s, in the order [`crate::AmsModel::for_each_analog_layer`] visits
//! them (convolutions, then the classifier), so N serving replicas that
//! hold the same checkpoint share one copy. A replica that drops an
//! adopted copy rebuilds it bit-identically from the same shadow weights.

use std::sync::Arc;

use ams_quant::QuantizedI8;
use ams_tensor::{Density, Tensor};

/// One layer's immutable eval-ready weights.
///
/// `wmat` is the quantized and realized (mismatch, programming noise,
/// drift at the layer's inference time) f32 weight matrix in the kernels' layout: `[c_out, c_in·k²]` for a
/// convolution, `[out_features, in_features]` for a linear layer. `i8` is
/// the pre-coded integer form when both operand widths fit 8 bits and no
/// f32 perturbation applies; it is built whatever kernel the freezing
/// context dispatches to, so the cache never depends on its history.
#[derive(Debug)]
pub struct FrozenLayerWeights {
    /// Quantized f32 weight matrix, kernel layout.
    pub wmat: Tensor,
    /// Sparsity summary the f32 conv kernel uses for skip decisions.
    pub density: Density,
    /// Pre-coded i8 weights, when representable.
    pub i8: Option<QuantizedI8>,
}

/// A whole network's frozen weights: one [`FrozenLayerWeights`] per analog
/// layer in [`crate::AmsModel::for_each_analog_layer`] order — the
/// convolutions in forward order, then the classifier. Cheap to clone —
/// workers share the underlying buffers through the `Arc`s.
#[derive(Debug, Clone)]
pub struct SharedModelWeights {
    /// Per-layer frozen weights, in visitor order.
    pub layers: Vec<Arc<FrozenLayerWeights>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HardwareConfig;
    use crate::lenet::LeNet5Config;
    use crate::resnet::ResNetMiniConfig;
    use crate::spec::{AmsModel, ModelSpec};
    use ams_core::error_model::{ErrorModelConfig, DRIFT_T0};
    use ams_core::vmac::Vmac;
    use ams_nn::Mode;
    use ams_quant::QuantConfig;
    use ams_tensor::{rng, ExecCtx, KernelDispatch};

    fn ams_hw() -> HardwareConfig {
        HardwareConfig::ams(QuantConfig::w8a8(), Vmac::new(8, 8, 8, 8.0))
    }

    /// Both zoo members at test size.
    fn zoo() -> [ModelSpec; 2] {
        [
            ModelSpec::ResNetMini(ResNetMiniConfig::tiny()),
            ModelSpec::LeNet5(LeNet5Config::tiny()),
        ]
    }

    /// PCM storage with conductance drift (weight-domain error only).
    fn drift_hw() -> HardwareConfig {
        ams_hw().with_error_model(ErrorModelConfig::drifting_pcm(0.06))
    }

    fn build(spec: &ModelSpec) -> Box<dyn AmsModel> {
        spec.build(&ams_hw())
    }

    fn images(spec: &ModelSpec, n: usize, seed: u64) -> Tensor {
        let (c, s) = spec.input_shape();
        let s = s.unwrap_or(8);
        let mut t = Tensor::zeros(&[n, c, s, s]);
        let mut r = rng::seeded(seed);
        rng::fill_uniform(&mut t, 0.0, 1.0, &mut r);
        t
    }

    fn kernels() -> [ExecCtx; 2] {
        [
            ExecCtx::serial(),
            ExecCtx::serial().with_kernel(KernelDispatch::I8),
        ]
    }

    #[test]
    fn frozen_eval_is_bitwise_identical_to_unfrozen() {
        // Same init seed → identical twins; freezing one must not change a
        // single bit of its eval output, on the f32 and the i8 kernels.
        for spec in zoo() {
            for ctx in kernels() {
                let mut plain = build(&spec);
                let mut frozen = build(&spec);
                frozen.freeze_shared_weights(&ctx);
                let x = images(&spec, 2, 5);
                plain.reseed_noise(99);
                frozen.reseed_noise(99);
                let a = plain.forward(&ctx, &x, Mode::Eval);
                let b = frozen.forward(&ctx, &x, Mode::Eval);
                assert_eq!(a, b, "{:?}, kernel {:?}", spec.kind(), ctx.kernel());
            }
        }
    }

    #[test]
    fn adopted_replicas_share_weights_and_match_the_freezer() {
        let ctx = ExecCtx::serial();
        for spec in zoo() {
            let mut template = build(&spec);
            let shared = template.freeze_shared_weights(&ctx);
            let mut replica = build(&spec);
            replica.adopt_shared_weights(&shared);
            let x = images(&spec, 2, 6);
            template.reseed_noise(7);
            replica.reseed_noise(7);
            assert_eq!(
                template.forward(&ctx, &x, Mode::Eval),
                replica.forward(&ctx, &x, Mode::Eval),
                "{:?}",
                spec.kind()
            );
        }
    }

    #[test]
    fn per_request_noise_matches_offline_batch1_eval() {
        // The serve contract end to end at model scale: a coalesced batch
        // with per-request seeds is bitwise what per-request offline
        // reseed_noise + batch-1 forwards produce, frozen or not, on both
        // kernels.
        let seeds = vec![101u64, 202, 303];
        for spec in zoo() {
            let x = images(&spec, seeds.len(), 8);
            let per_image = x.len() / seeds.len();
            for ctx in kernels() {
                let mut server = build(&spec);
                server.freeze_shared_weights(&ctx);
                server.set_request_noise_seeds(Some(Arc::new(seeds.clone())));
                let batched = server.forward(&ctx, &x, Mode::Eval);
                let classes = batched.dims()[1];

                let mut offline = build(&spec);
                for (i, &seed) in seeds.iter().enumerate() {
                    let one = Tensor::from_vec(
                        &[1, x.dims()[1], x.dims()[2], x.dims()[3]],
                        x.data()[i * per_image..(i + 1) * per_image].to_vec(),
                    )
                    .expect("one image");
                    offline.reseed_noise(seed);
                    let y = offline.forward(&ctx, &one, Mode::Eval);
                    assert_eq!(
                        y.data(),
                        &batched.data()[i * classes..(i + 1) * classes],
                        "{:?}, request {i}, kernel {:?}",
                        spec.kind(),
                        ctx.kernel()
                    );
                }
            }
        }
        // Under drift, at a time other than programming: a replica that
        // adopts weights frozen at `t` serves what the offline unfrozen
        // eval at `t` computes.
        let t = 3600.0;
        assert_ne!(t, DRIFT_T0);
        for spec in zoo() {
            let x = images(&spec, seeds.len(), 8);
            let per_image = x.len() / seeds.len();
            for ctx in kernels() {
                let mut freezer = spec.build(&drift_hw());
                freezer.set_inference_time(t);
                let shared = freezer.freeze_shared_weights(&ctx);
                let mut replica = spec.build(&drift_hw());
                replica.set_inference_time(t);
                replica.adopt_shared_weights(&shared);
                replica.set_request_noise_seeds(Some(Arc::new(seeds.clone())));
                let batched = replica.forward(&ctx, &x, Mode::Eval);
                let classes = batched.dims()[1];

                let mut offline = spec.build(&drift_hw());
                offline.set_inference_time(t);
                for (i, &seed) in seeds.iter().enumerate() {
                    let one = Tensor::from_vec(
                        &[1, x.dims()[1], x.dims()[2], x.dims()[3]],
                        x.data()[i * per_image..(i + 1) * per_image].to_vec(),
                    )
                    .expect("one image");
                    offline.reseed_noise(seed);
                    let y = offline.forward(&ctx, &one, Mode::Eval);
                    assert_eq!(
                        y.data(),
                        &batched.data()[i * classes..(i + 1) * classes],
                        "drift at t = {t}: {:?}, request {i}, kernel {:?}",
                        spec.kind(),
                        ctx.kernel()
                    );
                }
            }
        }
    }

    #[test]
    fn training_ignores_frozen_weights() {
        let ctx = ExecCtx::serial();
        for spec in zoo() {
            let mut plain = build(&spec);
            let mut frozen = build(&spec);
            frozen.freeze_shared_weights(&ctx);
            let x = images(&spec, 2, 9);
            assert_eq!(
                plain.forward(&ctx, &x, Mode::Train),
                frozen.forward(&ctx, &x, Mode::Train),
                "{:?}",
                spec.kind()
            );
        }
    }

    #[test]
    fn adopting_mismatched_weights_panics() {
        let ctx = ExecCtx::serial();
        for (small, big) in [
            (
                ModelSpec::ResNetMini(ResNetMiniConfig::tiny()),
                ModelSpec::ResNetMini(ResNetMiniConfig::quick()),
            ),
            (
                ModelSpec::LeNet5(LeNet5Config::tiny()),
                ModelSpec::LeNet5(LeNet5Config::quick()),
            ),
            (
                ModelSpec::ResNetMini(ResNetMiniConfig::tiny()),
                ModelSpec::LeNet5(LeNet5Config::tiny()),
            ),
        ] {
            let shared = build(&small).freeze_shared_weights(&ctx);
            let mut other = build(&big);
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                other.adopt_shared_weights(&shared)
            }))
            .expect_err("adopting another architecture's weights must panic");
            let msg = panic
                .downcast_ref::<String>()
                .expect("formatted panic message");
            assert!(
                msg.contains("different architecture"),
                "{:?} into {:?}: {msg}",
                small.kind(),
                big.kind()
            );
        }
    }
}
