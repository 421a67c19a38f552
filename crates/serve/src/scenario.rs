//! Scenario loading: resolve a `{model, quant, error-model, kernel}`
//! tuple to a trained checkpoint (via the experiment harness's cache) and
//! freeze its quantized weights once for the worker pool to share.

use std::sync::Arc;

use ams_core::error_model::{ErrorModelConfig, DRIFT_T0};
use ams_core::vmac::Vmac;
use ams_exp::{Experiments, Scale};
use ams_models::{AmsModel, HardwareConfig, ModelKind, ModelSpec, SharedModelWeights};
use ams_quant::{QuantConfig, QuantScheme};
use ams_tensor::{ExecCtx, KernelDispatch};

use crate::protocol::HardwareInfo;

/// What to serve: the scenario tuple plus where its artifacts live.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Scale preset sizing the dataset and the cached checkpoints.
    pub scale: Scale,
    /// Results directory holding (or receiving) the trained checkpoint.
    pub results: String,
    /// Network topology.
    pub model: ModelKind,
    /// Quantizer scheme.
    pub quant: QuantScheme,
    /// Error model realized at evaluation.
    pub error_model: ErrorModelConfig,
    /// Eval matmul dispatch.
    pub kernel: KernelDispatch,
    /// `ENOB_VMAC`; `None` uses the scale's Table-2 operating point.
    pub enob: Option<f64>,
    /// Simulated inference time (seconds after programming) plain
    /// classify requests run at; `classify-at` requests override it
    /// per-request. Only drift-aware error models read it.
    pub at_time: f64,
}

impl ScenarioConfig {
    /// The default serving scenario at the given scale: ResNet-mini,
    /// DoReFa w8a8, lumped Gaussian, f32 kernels, Table-2 ENOB.
    pub fn default_at(scale: Scale) -> Self {
        ScenarioConfig {
            scale,
            results: "results".to_string(),
            model: ModelKind::ResNetMini,
            quant: QuantScheme::Dorefa,
            error_model: ErrorModelConfig::Lumped,
            kernel: KernelDispatch::F32,
            enob: None,
            at_time: DRIFT_T0,
        }
    }

    /// Trains (or loads from cache) the scenario's AMS-retrained w8a8
    /// checkpoint and freezes its eval weights at the configured inference
    /// time for replica sharing.
    pub fn load(&self) -> LoadedScenario {
        let enob = self.enob.unwrap_or(self.scale.table2_enob);
        let exp = Experiments::new(self.scale.clone(), &self.results)
            .with_ctx(ExecCtx::auto().with_kernel(self.kernel))
            .with_error_model(self.error_model)
            .with_model(self.model)
            .with_quant(self.quant);
        let (ckpt, _) = exp.ams_retrained(QuantConfig::w8a8(), enob);

        let quant = QuantConfig::w8a8().with_scheme(self.quant);
        let vmac = Vmac::new(quant.bw, quant.bx, 8, enob);
        let hw = HardwareConfig::ams(quant, vmac).with_error_model(self.error_model);
        let spec = self.scale.model_spec(self.model);

        let freeze_ctx = ExecCtx::serial().with_kernel(self.kernel);
        let mut freezer = spec.build(&hw);
        ckpt.load_into(&mut *freezer)
            .expect("checkpoint matches the architecture it trained");
        freezer.set_inference_time(self.at_time);
        let shared = freezer.freeze_shared_weights(&freeze_ctx);

        let synth = &self.scale.synth;
        LoadedScenario {
            spec,
            hw,
            checkpoint: ckpt,
            shared: Arc::new(shared),
            kernel: self.kernel,
            at_time: self.at_time,
            input_dims: [synth.channels, synth.image_size, synth.image_size],
            classes: synth.classes,
            hardware_info: HardwareInfo {
                error_model: self.error_model.kind().to_string(),
                enob,
                n_mult: vmac.n_mult as u64,
            },
        }
    }
}

/// Everything a worker replica needs, resolved and frozen once.
#[derive(Debug, Clone)]
pub struct LoadedScenario {
    /// The architecture each replica builds.
    pub spec: ModelSpec,
    /// The hardware configuration each replica builds under.
    pub hw: HardwareConfig,
    /// The trained weights (the same data the frozen bundle was cut
    /// from) — lets offline comparators rebuild an unfrozen twin.
    pub checkpoint: ams_nn::Checkpoint,
    /// The frozen eval weights every replica adopts (`Arc`-shared),
    /// realized at `at_time`.
    pub shared: Arc<SharedModelWeights>,
    /// The eval matmul dispatch for worker contexts.
    pub kernel: KernelDispatch,
    /// The configured inference time plain classify requests run at.
    pub at_time: f64,
    /// `(C, H, W)` of one request image.
    pub input_dims: [usize; 3],
    /// Classifier output width.
    pub classes: usize,
    /// The config summary echoed in every response.
    pub hardware_info: HardwareInfo,
}

impl LoadedScenario {
    /// Pixels per request image (`C·H·W`).
    pub fn input_len(&self) -> usize {
        self.input_dims.iter().product()
    }

    /// Builds one worker replica sharing the frozen weights.
    ///
    /// The frozen bundle carries only the analog weight matrices; the
    /// digital biases and any normalization state live in the checkpoint,
    /// so each replica loads it and moves to `at_time` first (both drop
    /// the eval weights), then adopts the shared ones. A request at
    /// another time drops them again, and the replica refolds its own.
    pub fn build_replica(&self) -> Box<dyn AmsModel> {
        let mut net = self.spec.build(&self.hw);
        self.checkpoint
            .load_into(&mut *net)
            .expect("checkpoint matches the architecture it trained");
        net.set_inference_time(self.at_time);
        net.adopt_shared_weights(&self.shared);
        net
    }

    /// Builds a replica that does not adopt the shared frozen weights: it
    /// folds its own on its first eval forward, from the same checkpoint.
    /// Bitwise identical output to [`LoadedScenario::build_replica`], so
    /// it serves as the offline comparator for the daemon's replies.
    pub fn build_unfrozen_replica(&self) -> Box<dyn AmsModel> {
        let mut net = self.spec.build(&self.hw);
        self.checkpoint
            .load_into(&mut *net)
            .expect("checkpoint matches the architecture it trained");
        net
    }
}
