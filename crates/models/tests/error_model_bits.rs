//! Bit-level pins of every error-model configuration through the layer
//! API.
//!
//! Each case builds a fresh `QConv2d` or `QLinear` under one error-model
//! configuration, with device mismatch off and on, and runs a fixed
//! sequence of forwards on one layer: a train forward, two consecutive
//! eval forwards (the noise cursor advances between them), an eval
//! forward with per-request noise seeds, and an eval forward with a
//! recording metrics sink. The `to_bits` of every output, the layer's
//! injected σ and its noise cursor afterwards are hashed and compared
//! against `tests/golden/error_model_bits.txt`.
//!
//! Any change to what an error model draws, in which order, at which σ,
//! or to the weights it realizes shows up here as a digest mismatch. To
//! regenerate after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p ams-models --test error_model_bits
//! ```

use std::path::PathBuf;
use std::sync::Arc;

use ams_core::error_model::PartitionSpec;
use ams_core::mismatch::MismatchModel;
use ams_core::vmac::Vmac;
use ams_core::vmac_sim::AdcBehavior;
use ams_models::{AnalogGemm, ErrorModelConfig, HardwareConfig, InputKind, QConv2d, QLinear};
use ams_nn::{Layer, Mode};
use ams_quant::QuantConfig;
use ams_tensor::{rng, ExecCtx, MetricsSink, Tensor};

/// Operand width of both the quantizer and the VMAC: 7 bits leave 6
/// magnitude bits, which a 2×2 partition divides evenly.
const BITS: u32 = 7;

/// Conversion resolution: coarse enough that the four per-VMAC converters
/// leave different bits (`the_pinned_configurations_are_distinguishable`).
const ENOB: f64 = 7.0;

const BATCH: usize = 2;

/// Every error-model configuration, with the inference time it runs at.
fn configurations() -> Vec<(&'static str, ErrorModelConfig, f64)> {
    let per_vmac = |behavior, partition| ErrorModelConfig::PerVmac {
        behavior,
        partition,
    };
    vec![
        ("ideal", ErrorModelConfig::Ideal, 1.0),
        ("lumped", ErrorModelConfig::Lumped, 1.0),
        (
            "composite",
            ErrorModelConfig::Composite {
                multiplier_sigma: 2e-3,
            },
            1.0,
        ),
        ("per-vmac-ideal", per_vmac(AdcBehavior::Ideal, None), 1.0),
        (
            "per-vmac-quantizing",
            per_vmac(AdcBehavior::Quantizing, None),
            1.0,
        ),
        (
            "per-vmac-delta-sigma",
            per_vmac(
                AdcBehavior::DeltaSigma {
                    final_extra_bits: 2.0,
                },
                None,
            ),
            1.0,
        ),
        (
            "per-vmac-ref-scaled",
            per_vmac(AdcBehavior::RefScaled { alpha: 0.5 }, None),
            1.0,
        ),
        (
            "per-vmac-partition-2x2",
            per_vmac(
                AdcBehavior::Quantizing,
                Some(PartitionSpec {
                    n_w: 2,
                    n_x: 2,
                    slice_enob: 8.0,
                }),
            ),
            1.0,
        ),
        ("drifting-pcm-t1", ErrorModelConfig::drifting_pcm(0.06), 1.0),
        (
            "drifting-pcm-t3600",
            ErrorModelConfig::drifting_pcm(0.06),
            3600.0,
        ),
    ]
}

/// FNV-1a over 32-bit words.
fn fnv(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn digest(t: &Tensor) -> u64 {
    fn words(t: &Tensor) -> impl Iterator<Item = u32> + '_ {
        t.dims()
            .iter()
            .map(|&d| d as u32)
            .chain(t.data().iter().map(|v| v.to_bits()))
    }
    fnv(words(t))
}

/// Runs the pinned forward sequence on `layer`; returns one digest line.
fn run_case<L: Layer + std::ops::DerefMut<Target = AnalogGemm>>(
    layer: &mut L,
    x: &Tensor,
    noise_index: u64,
    t: f64,
) -> String {
    let ctx = ExecCtx::serial();
    layer.set_inference_time(t);
    let train = layer.forward(&ctx, x, Mode::Train);
    let eval1 = layer.forward(&ctx, x, Mode::Eval);
    let eval2 = layer.forward(&ctx, x, Mode::Eval);
    let seeds = Arc::new((5..5 + BATCH as u64).collect::<Vec<_>>());
    layer.set_request_noise_seeds(Some(seeds), noise_index);
    let request = layer.forward(&ctx, x, Mode::Eval);
    layer.set_request_noise_seeds(None, noise_index);
    let traced_ctx = ExecCtx::serial().with_metrics(MetricsSink::recording());
    let metrics = layer.forward(&traced_ctx, x, Mode::Eval);
    let cursor = serde_json::to_string(&layer.noise_state()).expect("cursor serializes");
    let sigma = layer.error_sigma().map_or(0, f32::to_bits);
    format!(
        "sigma={sigma:08x} train={:016x} eval1={:016x} eval2={:016x} request={:016x} \
         metrics={:016x} cursor={:016x}",
        digest(&train),
        digest(&eval1),
        digest(&eval2),
        digest(&request),
        digest(&metrics),
        fnv(cursor.bytes().map(u32::from)),
    )
}

fn uniform(dims: &[usize], seed: u64) -> Tensor {
    let mut x = Tensor::zeros(dims);
    rng::fill_uniform(&mut x, 0.0, 1.0, &mut rng::seeded(seed));
    x
}

/// One digest line per (configuration, mismatch, layer) case.
fn digest_table() -> String {
    let x_conv = uniform(&[BATCH, 3, 6, 6], 11);
    let x_fc = uniform(&[BATCH, 24], 12);
    let mut out = String::new();
    for (name, cfg, t) in configurations() {
        for mismatch in [None, Some(MismatchModel::new(0.05, 42))] {
            let mut hw =
                HardwareConfig::ams(QuantConfig::new(BITS, BITS), Vmac::new(BITS, BITS, 8, ENOB))
                    .with_error_model(cfg);
            if let Some(m) = mismatch {
                hw = hw.with_mismatch(m);
            }
            let tag = if mismatch.is_some() {
                "mismatch"
            } else {
                "exact"
            };
            let mut r = rng::seeded(3);
            let mut conv = QConv2d::new("conv", 3, 4, 3, 1, 1, &hw, InputKind::Unit, 2, &mut r);
            let line = run_case(&mut conv, &x_conv, 2, t);
            out.push_str(&format!("{name} {tag} qconv2d {line}\n"));
            let mut fc = QLinear::new("fc", 24, 5, &hw, false, 7, &mut r);
            let line = run_case(&mut fc, &x_fc, 7, t);
            out.push_str(&format!("{name} {tag} qlinear {line}\n"));
        }
    }
    out
}

#[test]
fn every_error_model_configuration_matches_its_committed_digests() {
    let produced = digest_table();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/error_model_bits.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &produced).unwrap();
        eprintln!("updated golden {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}; generate it with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    for (want, got) in golden.lines().zip(produced.lines()) {
        assert_eq!(got, want, "error-model bits drifted from the golden");
    }
    assert_eq!(
        produced.lines().count(),
        golden.lines().count(),
        "case count changed"
    );
}

#[test]
fn the_pinned_configurations_are_distinguishable() {
    // A digest table is only a pin if the cases differ: every
    // configuration must leave different eval bits from every other, and
    // mismatch must change every configuration's output.
    let table = digest_table();
    let eval1 = |line: &str| {
        line.split_whitespace()
            .find(|f| f.starts_with("eval1="))
            .unwrap()
            .to_string()
    };
    let lines: Vec<&str> = table.lines().collect();
    for (i, a) in lines.iter().enumerate() {
        for b in &lines[i + 1..] {
            assert_ne!(eval1(a), eval1(b), "\n{a}\n{b}");
        }
    }
}
