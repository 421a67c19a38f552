//! The frozen eval weights are a cache of (shadow weights, inference
//! time): every eval forward reads them, and every way of changing either
//! input drops them. Each test drives one invalidation point and compares
//! the network's eval output with a freshly built twin that never held a
//! cache, loaded with the same weights.
//!
//! The last two tests are the oracle of the frozen eval path: with
//! nothing injected, an eval forward on the frozen weights computes
//! exactly what a train forward computes on freshly quantized (and
//! mismatch-realized) weights.

use ams_core::error_model::{ErrorModelConfig, DRIFT_T0};
use ams_core::mismatch::MismatchModel;
use ams_core::vmac::Vmac;
use ams_models::{
    AmsModel, HardwareConfig, InputKind, LeNet5Config, ModelSpec, QConv2d, QLinear,
    ResNetMiniConfig,
};
use ams_nn::{softmax_cross_entropy, Checkpoint, Layer, Mode, Sgd};
use ams_quant::QuantConfig;
use ams_tensor::{rng, ExecCtx, Tensor};

/// AMS hardware that injects the lumped Eq. 2 error at eval.
fn ams_hw() -> HardwareConfig {
    HardwareConfig::ams(QuantConfig::w8a8(), Vmac::new(8, 8, 8, 8.0))
}

/// Both zoo members at test size, initialized from `init_seed`.
fn zoo(init_seed: u64) -> [ModelSpec; 2] {
    [
        ModelSpec::ResNetMini(ResNetMiniConfig {
            init_seed,
            ..ResNetMiniConfig::tiny()
        }),
        ModelSpec::LeNet5(LeNet5Config {
            init_seed,
            ..LeNet5Config::tiny()
        }),
    ]
}

fn images(spec: &ModelSpec, n: usize, seed: u64) -> Tensor {
    let (c, s) = spec.input_shape();
    let s = s.unwrap_or(8);
    let mut t = Tensor::zeros(&[n, c, s, s]);
    rng::fill_uniform(&mut t, 0.0, 1.0, &mut rng::seeded(seed));
    t
}

/// One reseeded eval forward.
fn eval(net: &mut dyn AmsModel, x: &Tensor) -> Tensor {
    net.reseed_noise(3);
    net.forward(&ExecCtx::serial(), x, Mode::Eval)
}

/// A freshly built network holding `ckpt`'s weights at inference time `t`.
fn twin_eval(
    spec: &ModelSpec,
    hw: &HardwareConfig,
    ckpt: &Checkpoint,
    t: f64,
    x: &Tensor,
) -> Tensor {
    let mut twin = spec.build(hw);
    ckpt.load_into(&mut *twin).expect("same architecture");
    twin.set_inference_time(t);
    eval(&mut *twin, x)
}

#[test]
fn sgd_step_after_an_eval_rebuilds_the_eval_weights() {
    let ctx = ExecCtx::serial();
    for spec in zoo(42) {
        let x = images(&spec, 2, 1);
        let mut net = spec.build(&ams_hw());
        let logits = net.forward(&ctx, &x, Mode::Train);
        let (_, grad) = softmax_cross_entropy(&logits, &[0, 1]);
        net.backward(&ctx, &grad);
        let before = eval(&mut *net, &x);
        Sgd::new(0.5).step(&mut *net);
        let after = eval(&mut *net, &x);
        assert_ne!(
            before,
            after,
            "{:?}: the step must move the output",
            spec.kind()
        );
        let ckpt = Checkpoint::from_layer(&mut *net);
        assert_eq!(
            after,
            twin_eval(&spec, &ams_hw(), &ckpt, DRIFT_T0, &x),
            "{:?}",
            spec.kind()
        );
    }
}

#[test]
fn loading_other_weights_after_an_eval_rebuilds_the_eval_weights() {
    for (spec, other_spec) in zoo(42).into_iter().zip(zoo(7)) {
        let x = images(&spec, 2, 2);
        let other = Checkpoint::from_layer(&mut *other_spec.build(&ams_hw()));
        let mut net = spec.build(&ams_hw());
        let before = eval(&mut *net, &x);
        other.load_into(&mut *net).expect("same architecture");
        let after = eval(&mut *net, &x);
        assert_ne!(
            before,
            after,
            "{:?}: the load must move the output",
            spec.kind()
        );
        assert_eq!(
            after,
            twin_eval(&spec, &ams_hw(), &other, DRIFT_T0, &x),
            "{:?}",
            spec.kind()
        );
    }
}

#[test]
fn changing_the_inference_time_refolds_drift() {
    let hw = ams_hw().with_error_model(ErrorModelConfig::drifting_pcm(0.06));
    let (t1, t2) = (60.0, 86_400.0);
    for spec in zoo(42) {
        let x = images(&spec, 2, 3);
        let mut net = spec.build(&hw);
        let ckpt = Checkpoint::from_layer(&mut *net);
        let mut seen = Vec::new();
        for t in [t1, t2, t1] {
            net.set_inference_time(t);
            let y = eval(&mut *net, &x);
            assert_eq!(
                y,
                twin_eval(&spec, &hw, &ckpt, t, &x),
                "{:?} at t = {t}",
                spec.kind()
            );
            seen.push(y);
        }
        assert_ne!(
            seen[0],
            seen[1],
            "{:?}: drift must move the output",
            spec.kind()
        );
    }
}

/// Non-injecting w8a8 hardware, with and without a mismatch overlay.
fn quiet_configs() -> [HardwareConfig; 2] {
    let hw = HardwareConfig::quantized(QuantConfig::w8a8());
    [hw, hw.with_mismatch(MismatchModel::new(0.05, 42))]
}

#[test]
fn qconv_eval_on_frozen_weights_equals_the_train_forward() {
    let ctx = ExecCtx::serial();
    let mut x = Tensor::zeros(&[2, 3, 6, 6]);
    rng::fill_uniform(&mut x, 0.0, 1.0, &mut rng::seeded(5));
    for hw in quiet_configs() {
        let mut qc = QConv2d::new(
            "c",
            3,
            4,
            3,
            1,
            1,
            &hw,
            InputKind::Unit,
            0,
            &mut rng::seeded(0),
        );
        let train = qc.forward(&ctx, &x, Mode::Train);
        assert_eq!(qc.forward(&ctx, &x, Mode::Eval), train, "{hw:?}");
    }
}

#[test]
fn qlinear_eval_on_frozen_weights_equals_the_train_forward() {
    let ctx = ExecCtx::serial();
    let mut x = Tensor::zeros(&[4, 16]);
    rng::fill_uniform(&mut x, 0.0, 1.0, &mut rng::seeded(6));
    for hw in quiet_configs() {
        let mut fc = QLinear::new("fc", 16, 5, &hw, true, 9, &mut rng::seeded(1));
        let train = fc.forward(&ctx, &x, Mode::Train);
        assert_eq!(fc.forward(&ctx, &x, Mode::Eval), train, "{hw:?}");
    }
}
