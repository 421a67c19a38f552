//! The hardware description applied to a network.

use ams_core::error_model::{ErrorModel, ErrorModelConfig, ErrorModelKind, LayerError};
use ams_core::mismatch::MismatchModel;
use ams_core::vmac::Vmac;
use ams_quant::{QuantConfig, QuantScheme, WeightScheme};
use ams_tensor::noise_stream_seed;
use serde::{Deserialize, Serialize};

use crate::spec::ModelKind;

/// How a quantized layer interprets its input activations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum InputKind {
    /// Inputs are already in `[0, 1]` (the output of a preceding ReLU-1);
    /// quantized unsigned to `B_X` bits.
    #[default]
    Unit,
    /// Inputs are raw network inputs in `[0, 1]`; the layer rescales them
    /// to `[-1, 1]` and quantizes sign-magnitude to `B_X` bits — the
    /// paper's first-layer treatment ("we rescale them by the maximum
    /// input activation value so that they lie in the range [-1, 1] before
    /// quantizing", §2).
    SignedRescaled,
}

/// The full hardware story applied to every quantized layer of a network.
///
/// Three presets cover the paper's regimes:
///
/// * [`HardwareConfig::fp32`] — no quantization, no error (baseline);
/// * [`HardwareConfig::quantized`] — DoReFa quantization only (Table 1);
/// * [`HardwareConfig::ams`] — quantization plus VMAC error injection
///   (Figs. 4–6, Table 2).
///
/// # Example
///
/// ```
/// use ams_core::vmac::Vmac;
/// use ams_models::HardwareConfig;
/// use ams_quant::QuantConfig;
///
/// let hw = HardwareConfig::ams(QuantConfig::w8a8(), Vmac::new(8, 8, 8, 10.0));
/// assert!(hw.vmac.is_some());
/// assert!(hw.inject_eval && hw.inject_train);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HardwareConfig {
    /// Weight/activation bit-widths.
    pub quant: QuantConfig,
    /// Weight transform scheme.
    pub scheme: WeightScheme,
    /// The AMS cell; `None` models ideal digital hardware.
    pub vmac: Option<Vmac>,
    /// Inject AMS error during training forward passes.
    pub inject_train: bool,
    /// Inject AMS error during evaluation forward passes.
    pub inject_eval: bool,
    /// Inject into the *last* layer during training. The paper found this
    /// destroys learning and leaves it off (§2); it stays available for
    /// the ablation that reproduces that finding.
    pub inject_last_layer_train: bool,
    /// Which error model realizes the VMAC error budget (lumped Gaussian,
    /// composite multiplier + ADC, per-VMAC chunked simulation, or ideal —
    /// see [`ErrorModelConfig`]).
    pub error_model: ErrorModelConfig,
    /// Optional static device mismatch applied to the realized weights
    /// (paper §4's "non-additive and data-dependent errors").
    pub mismatch: Option<MismatchModel>,
    /// Master seed for the per-layer error streams.
    pub noise_seed: u64,
    /// Which topology this hardware is mounted on. Stamped by the model
    /// constructors; scopes per-layer metric keys so quantizer × model ×
    /// error-model scenarios don't collide (absent in configs serialized
    /// before the model seam existed; defaults to ResNetMini).
    pub model_tag: ModelKind,
}

impl HardwareConfig {
    /// Full-precision digital hardware: the FP32 baseline.
    pub fn fp32() -> Self {
        HardwareConfig {
            quant: QuantConfig::fp32(),
            scheme: WeightScheme::Tanh,
            vmac: None,
            inject_train: false,
            inject_eval: false,
            inject_last_layer_train: false,
            error_model: ErrorModelConfig::Lumped,
            mismatch: None,
            noise_seed: 0,
            model_tag: ModelKind::ResNetMini,
        }
    }

    /// Ideal digital hardware at reduced precision (Table 1 rows).
    pub fn quantized(quant: QuantConfig) -> Self {
        HardwareConfig {
            quant,
            ..Self::fp32()
        }
    }

    /// AMS hardware: quantization plus error injection in both training
    /// and evaluation (the paper's retraining configuration).
    pub fn ams(quant: QuantConfig, vmac: Vmac) -> Self {
        HardwareConfig {
            quant,
            vmac: Some(vmac),
            inject_train: true,
            inject_eval: true,
            ..Self::fp32()
        }
    }

    /// AMS hardware with error injected at evaluation time only (the
    /// "AMS error in eval only" series of Figs. 4–5).
    pub fn ams_eval_only(quant: QuantConfig, vmac: Vmac) -> Self {
        HardwareConfig {
            inject_train: false,
            ..Self::ams(quant, vmac)
        }
    }

    /// Returns a copy using per-VMAC chunked quantization at evaluation
    /// (paper §4's fine-grained mode; training still uses the lumped
    /// Gaussian, exactly as the paper suggests to avoid the slowdown).
    pub fn with_per_vmac_eval(self) -> Self {
        self.with_error_model(ErrorModelConfig::per_vmac())
    }

    /// Returns a copy selecting a different error model.
    pub fn with_error_model(mut self, error_model: ErrorModelConfig) -> Self {
        self.error_model = error_model;
        self
    }

    /// Builds the live error model for the layer at `layer_index`,
    /// seeding its noise stream from this config's master seed.
    pub fn layer_error(&self, layer_index: u64) -> LayerError {
        self.error_model.build(
            self.vmac,
            self.mismatch,
            noise_stream_seed(self.noise_seed, layer_index),
        )
    }

    /// [`HardwareConfig::layer_error`] behind the [`ErrorModel`] shim.
    /// Only `ams_bench`'s layer replay calls it; the benchmark change
    /// that retires the replay (ROADMAP item 1) deletes it with the trait.
    pub fn build_error_model(&self, layer_index: u64) -> Box<dyn ErrorModel> {
        Box::new(self.layer_error(layer_index))
    }

    /// Returns a copy with static device mismatch applied to the realized
    /// weights.
    pub fn with_mismatch(mut self, mismatch: MismatchModel) -> Self {
        self.mismatch = Some(mismatch);
        self
    }

    /// Returns a copy tagged with the topology it is mounted on (stamped
    /// by the model constructors; scopes per-layer metric keys).
    pub fn with_model_tag(mut self, model: ModelKind) -> Self {
        self.model_tag = model;
        self
    }

    /// The gauge key under which a layer reports its injected-noise
    /// statistics.
    ///
    /// The default scenario (ResNetMini topology, DoReFa quantization)
    /// keeps the legacy `noise.<layer>.<kind>.enob<e>` key so committed
    /// dashboards and CI assertions stay valid; any other scenario scopes
    /// the key as `noise.<layer>.<model>.<quant>.<kind>.enob<e>`.
    pub fn noise_gauge_key(&self, layer: &str, kind: ErrorModelKind, enob: f64) -> String {
        if self.model_tag == ModelKind::ResNetMini && self.quant.scheme == QuantScheme::Dorefa {
            format!("noise.{layer}.{kind}.enob{enob:.1}")
        } else {
            format!(
                "noise.{layer}.{}.{}.{kind}.enob{enob:.1}",
                self.model_tag.key(),
                self.quant.scheme.key()
            )
        }
    }

    /// Whether a layer built from this config injects error in the given
    /// situation.
    pub fn injects(&self, train: bool, is_last_layer: bool) -> bool {
        if self.vmac.is_none() {
            return false;
        }
        if train {
            self.inject_train && (!is_last_layer || self.inject_last_layer_train)
        } else {
            self.inject_eval
        }
    }
}

impl Default for HardwareConfig {
    fn default() -> Self {
        Self::fp32()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        assert!(HardwareConfig::fp32().quant.is_fp32());
        let q = HardwareConfig::quantized(QuantConfig::w6a6());
        assert_eq!(q.quant, QuantConfig::w6a6());
        assert!(q.vmac.is_none());
    }

    #[test]
    fn injection_rules_follow_the_paper() {
        let hw = HardwareConfig::ams(QuantConfig::w8a8(), Vmac::default());
        // Every layer at eval, including the last.
        assert!(hw.injects(false, true));
        assert!(hw.injects(false, false));
        // During training, every layer except the last.
        assert!(hw.injects(true, false));
        assert!(!hw.injects(true, true));
        // Eval-only variant never injects in training.
        let eo = HardwareConfig::ams_eval_only(QuantConfig::w8a8(), Vmac::default());
        assert!(!eo.injects(true, false));
        assert!(eo.injects(false, false));
        // Digital hardware never injects.
        assert!(!HardwareConfig::quantized(QuantConfig::w8a8()).injects(false, false));
    }

    #[test]
    fn error_model_selection_flows_into_built_models() {
        use ams_core::error_model::ErrorModelKind;
        let hw = HardwareConfig::ams(QuantConfig::w8a8(), Vmac::default());
        assert_eq!(hw.error_model, ErrorModelConfig::Lumped);
        assert_eq!(hw.layer_error(0).kind(), ErrorModelKind::Lumped);

        let pv = hw.with_per_vmac_eval();
        assert_eq!(pv.error_model, ErrorModelConfig::per_vmac());
        let model = pv.layer_error(3);
        assert_eq!(model.kind(), ErrorModelKind::PerVmac);
        assert!(model.operand_sim().is_some());

        let ideal = hw.with_error_model(ErrorModelConfig::Ideal);
        assert!(ideal.layer_error(0).sigma(64).is_none());
    }
}
