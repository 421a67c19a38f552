//! The model seam: [`ModelKind`], [`AmsModel`] and [`ModelSpec`].
//!
//! The experiment harness used to hardcode [`crate::ResNetMini`] at every
//! build site. [`ModelSpec`] packages what the harness actually needs —
//! an architecture constructor, the Table-2 freeze-policy set, and the
//! input shape — behind one dispatch point, and [`AmsModel`] is the
//! object-safe capability surface every network in the zoo offers
//! (noise-stream checkpointing, probes, freezing, energy accounting) on
//! top of [`ams_nn::Layer`], written once over the layer visitor
//! [`AmsModel::for_each_analog_layer`].
//!
//! # Example
//!
//! ```
//! use ams_models::{HardwareConfig, LeNet5Config, ModelSpec};
//! use ams_nn::Mode;
//! use ams_tensor::{ExecCtx, Tensor};
//!
//! let spec = ModelSpec::LeNet5(LeNet5Config::tiny());
//! let mut net = spec.build(&HardwareConfig::fp32());
//! let (c, s) = spec.input_shape();
//! let s = s.expect("LeNet5 has a fixed input size");
//! let y = net.forward(&ExecCtx::serial(), &Tensor::zeros(&[2, c, s, s]), Mode::Eval);
//! assert_eq!(y.dims(), &[2, spec.classes()]);
//! ```

use std::sync::Arc;

use ams_nn::{Layer, Mode};
use ams_tensor::{rng::RngState, ExecCtx, Tensor};
use serde::{Deserialize, Serialize};

use crate::analog::AnalogGemm;
use crate::config::HardwareConfig;
use crate::freeze::FreezePolicy;
use crate::frozen::SharedModelWeights;
use crate::lenet::{LeNet5, LeNet5Config};
use crate::resnet::{ResNetMini, ResNetMiniConfig};
use crate::surgery::{layer_energy_pj, EnergyReport, LayerEnergy};

/// Which network topology an artifact (checkpoint, journal, metric key)
/// belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize)]
pub enum ModelKind {
    /// The three-stage residual substrate network (DESIGN.md §3).
    #[default]
    ResNetMini,
    /// The LeNet-5-shaped plain conv net (two 5×5 conv/pool blocks).
    LeNet5,
}

impl ModelKind {
    /// Short identifier used in artifact names, CLI flags and metric keys.
    pub fn key(&self) -> &'static str {
        match self {
            ModelKind::ResNetMini => "resnet-mini",
            ModelKind::LeNet5 => "lenet5",
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.key())
    }
}

impl std::str::FromStr for ModelKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "resnet-mini" | "resnet_mini" | "resnet" => Ok(ModelKind::ResNetMini),
            "lenet5" | "lenet-5" | "lenet" => Ok(ModelKind::LeNet5),
            other => Err(format!("unknown model `{other}`; use resnet-mini|lenet5")),
        }
    }
}

// Hand-written so checkpoints/train states serialized before the model
// seam existed (no `model` field) deserialize as ResNetMini — the vendored
// serde facade's equivalent of `#[serde(default)]`.
impl serde::Deserialize for ModelKind {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        match v {
            serde::Value::Str(s) if s == "ResNetMini" => Ok(ModelKind::ResNetMini),
            serde::Value::Str(s) if s == "LeNet5" => Ok(ModelKind::LeNet5),
            serde::Value::Str(other) => Err(serde::DeError::unknown_variant("ModelKind", other)),
            _ => Err(serde::DeError::expected("enum ModelKind")),
        }
    }

    fn missing() -> Option<Self> {
        Some(ModelKind::ResNetMini)
    }
}

/// Noise-stream index of the classifier, kept clear of the convolutions'
/// sequential indices so an architecture can grow without shifting it.
pub(crate) const FC_NOISE_INDEX: u64 = 1000;

/// The capability surface the experiment harness needs from a network,
/// over and above [`Layer`]: AMS noise-stream checkpointing (crash-safe
/// resume, DESIGN.md §9), activation probes (Fig. 6), Table-2 freezing,
/// and Eq. 3–4 energy accounting.
///
/// A network implements [`AmsModel::kind`], [`AmsModel::hardware`] and the
/// layer visitor [`AmsModel::for_each_analog_layer`]; every other method is
/// provided over the visitor. `&mut dyn AmsModel` upcasts to
/// `&mut dyn Layer` wherever checkpoints or the optimizer need the
/// parameter tree.
pub trait AmsModel: Layer {
    /// Which topology this is (keys artifacts and metric names).
    fn kind(&self) -> ModelKind;

    /// The hardware configuration the network was built with.
    fn hardware(&self) -> &HardwareConfig;

    /// Visits every analog layer: the convolutions in forward order, then
    /// the classifier.
    fn for_each_analog_layer(&mut self, f: &mut dyn FnMut(&mut AnalogGemm));

    /// Reseeds every layer's AMS noise stream for an independent pass.
    fn reseed_noise(&mut self, pass_seed: u64) {
        for_each_noise_stream(self, &mut |g, index| g.reseed_noise(pass_seed, index));
    }

    /// Snapshots every layer's noise-stream cursor in forward order.
    fn noise_states(&mut self) -> Vec<RngState> {
        let mut out = Vec::new();
        self.for_each_analog_layer(&mut |g| out.push(g.noise_state()));
        out
    }

    /// Repositions every layer's noise stream at the captured cursors.
    ///
    /// # Panics
    ///
    /// Panics if `states` was captured from a different architecture
    /// (wrong stream count) — resuming would silently desynchronize the
    /// noise streams otherwise.
    fn restore_noise_states(&mut self, states: &[RngState]) {
        let layers = analog_layer_count(self);
        assert_eq!(
            states.len(),
            layers,
            "noise-state checkpoint has {} streams, this architecture needs {layers}",
            states.len(),
        );
        let mut it = states.iter();
        self.for_each_analog_layer(&mut |g| {
            g.restore_noise_state(it.next().expect("length checked above"));
        });
    }

    /// Sets the simulated inference time (seconds since programming) on
    /// every layer's noise context. Only conductance drift reads it; a
    /// bitwise change drops every layer's frozen eval weights, which the
    /// next eval forward rebuilds at the new time.
    fn set_inference_time(&mut self, t: f64) {
        self.for_each_analog_layer(&mut |g| g.set_inference_time(t));
    }

    /// Installs (or clears) per-layer affine output compensations
    /// `y ← a·y + b`, one per analog layer in forward order
    /// (convolutions then the classifier) — the CorrectNet-style drift
    /// correction fitted by the runner.
    ///
    /// # Panics
    ///
    /// Panics if `comp` is `Some` with the wrong layer count.
    fn set_compensation(&mut self, comp: Option<&[(f32, f32)]>) {
        if let Some(c) = comp {
            let layers = analog_layer_count(self);
            assert_eq!(
                c.len(),
                layers,
                "compensation has {} layers, this architecture needs {layers}",
                c.len(),
            );
        }
        let mut it = comp.into_iter().flatten();
        self.for_each_analog_layer(&mut |g| g.set_compensation(it.next().copied()));
    }

    /// Enables or disables output probes on every analog layer; enabling
    /// resets the accumulators.
    fn set_probes(&mut self, enabled: bool) {
        self.for_each_analog_layer(&mut |g| g.set_probe(enabled));
    }

    /// Collects `(layer_name, mean)` for every probed convolution with
    /// observed data, in forward order — the Fig. 6 layout, which leaves
    /// out the classifier.
    fn probe_means(&mut self) -> Vec<(String, f32)> {
        let mut out = Vec::new();
        self.for_each_analog_layer(&mut |g| {
            if let Some(m) = g.probe_mean().filter(|_| !g.is_last_layer()) {
                out.push((g.name().to_string(), m));
            }
        });
        out
    }

    /// Collects `(mean, variance)` for every analog layer in forward
    /// order (convolutions then the classifier) since probing was enabled
    /// — the statistics the compensation fit matches between a clean and
    /// a noisy twin. Layers with no observed data report `(0, 0)`.
    fn probe_stats(&mut self) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        self.for_each_analog_layer(&mut |g| out.push(g.probe_stats().unwrap_or((0.0, 0.0))));
        out
    }

    /// Applies a Table 2 freezing policy to all parameters.
    fn apply_freeze(&mut self, policy: FreezePolicy) {
        policy.apply(self);
    }

    /// Prices one inference at the given square input size under the
    /// paper's Eq. 3–4 energy model (the §4 "lookup table" at network
    /// granularity). Runs a dummy forward pass to size every layer.
    ///
    /// When no VMAC is configured, per-layer energies are zero but MAC
    /// counts are still reported.
    ///
    /// # Panics
    ///
    /// Panics if `image_size` is too small for the network's strides.
    fn energy_report(&mut self, ctx: &ExecCtx, image_size: usize) -> EnergyReport {
        // The first analog layer reads the image: its weight's second
        // dimension is the image's channel count.
        let mut channels = None;
        self.for_each_analog_layer(&mut |g| {
            channels.get_or_insert(g.weight().value.dims()[1]);
        });
        let channels = channels.expect("a network has analog layers");
        let dummy = Tensor::zeros(&[1, channels, image_size, image_size]);
        let _ = self.forward(ctx, &dummy, Mode::Eval);
        let vmac = self.hardware().vmac;
        let mut layers = Vec::new();
        self.for_each_analog_layer(&mut |g| {
            let macs = g.macs_per_image().expect("forward just ran");
            layers.push(LayerEnergy {
                name: g.name().to_string(),
                macs,
                n_tot: g.n_tot(),
                energy_pj: vmac
                    .map(|v| layer_energy_pj(macs, v.enob, v.n_mult))
                    .unwrap_or(0.0),
            });
        });
        EnergyReport { layers }
    }

    /// Per-layer `(name, N_tot, σ)` of the injected AMS error under the
    /// network's hardware config (empty σ values when no VMAC).
    fn error_budget(&mut self) -> Vec<(String, usize, Option<f32>)> {
        let mut out = Vec::new();
        self.for_each_analog_layer(&mut |g| {
            out.push((g.name().to_string(), g.n_tot(), g.error_sigma()));
        });
        out
    }

    /// Builds every layer's frozen eval weights now (the first eval
    /// forward would do so anyway), and returns the bundle so worker
    /// replicas can [`AmsModel::adopt_shared_weights`] one copy. Each
    /// layer's frozen weights are a cache of its shadow weights and
    /// inference time: a weight mutation (optimizer step, checkpoint
    /// load) or a new `t` drops it, on this network and on a replica
    /// alike, and the next eval forward rebuilds it bit-identically.
    fn freeze_shared_weights(&mut self, ctx: &ExecCtx) -> SharedModelWeights {
        let mut layers = Vec::new();
        self.for_each_analog_layer(&mut |g| layers.push(g.freeze_eval_weights(ctx)));
        SharedModelWeights { layers }
    }

    /// Installs frozen weights produced by a twin network's
    /// [`AmsModel::freeze_shared_weights`] — replicas share one buffer per
    /// layer through the `Arc`s.
    ///
    /// # Panics
    ///
    /// Panics if the bundle came from a different architecture (wrong
    /// layer count or shapes).
    fn adopt_shared_weights(&mut self, shared: &SharedModelWeights) {
        let layers = analog_layer_count(self);
        assert_eq!(
            shared.layers.len(),
            layers,
            "shared weights from a different architecture: {} layers, this one has {layers}",
            shared.layers.len(),
        );
        let mut it = shared.layers.iter();
        self.for_each_analog_layer(&mut |g| {
            g.adopt_frozen_weights(Arc::clone(it.next().expect("length checked above")));
        });
    }

    /// Sets (or clears) per-request noise seeds on every injecting layer:
    /// image `i` of the next eval batch draws the exact noise an offline
    /// `reseed_noise(seeds[i])` + batch-1 forward would, making a batch of
    /// requests bit-identical to offline evaluation.
    fn set_request_noise_seeds(&mut self, seeds: Option<Arc<Vec<u64>>>) {
        for_each_noise_stream(self, &mut |g, index| {
            g.set_request_noise_seeds(seeds.clone(), index);
        });
    }
}

/// Visits every analog layer with its noise-stream index: the
/// convolutions count up from 0 in forward order, the classifier takes
/// [`FC_NOISE_INDEX`].
fn for_each_noise_stream<M: AmsModel + ?Sized>(
    model: &mut M,
    f: &mut dyn FnMut(&mut AnalogGemm, u64),
) {
    let mut conv = 0u64;
    model.for_each_analog_layer(&mut |g| {
        let index = if g.is_last_layer() {
            FC_NOISE_INDEX
        } else {
            conv += 1;
            conv - 1
        };
        f(g, index);
    });
}

fn analog_layer_count<M: AmsModel + ?Sized>(model: &mut M) -> usize {
    let mut count = 0;
    model.for_each_analog_layer(&mut |_| count += 1);
    count
}

/// A buildable model architecture: everything the runner needs to work
/// with a network without naming its concrete type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ModelSpec {
    /// [`ResNetMini`] with the given architecture.
    ResNetMini(ResNetMiniConfig),
    /// [`LeNet5`] with the given architecture.
    LeNet5(LeNet5Config),
}

impl ModelSpec {
    /// The topology tag (artifact/metric key component).
    pub fn kind(&self) -> ModelKind {
        match self {
            ModelSpec::ResNetMini(_) => ModelKind::ResNetMini,
            ModelSpec::LeNet5(_) => ModelKind::LeNet5,
        }
    }

    /// Constructs the network for this architecture under `hw` (with the
    /// hardware tagged by [`ModelSpec::kind`], so layer metric keys carry
    /// the scenario).
    pub fn build(&self, hw: &HardwareConfig) -> Box<dyn AmsModel> {
        let hw = hw.with_model_tag(self.kind());
        match self {
            ModelSpec::ResNetMini(arch) => Box::new(ResNetMini::new(arch, &hw)),
            ModelSpec::LeNet5(arch) => Box::new(LeNet5::new(arch, &hw)),
        }
    }

    /// `(channels, square_size)` of the input images the net expects;
    /// `None` when the topology accepts any size its strides survive
    /// (ResNetMini's global average pool absorbs the spatial dims).
    pub fn input_shape(&self) -> (usize, Option<usize>) {
        match self {
            ModelSpec::ResNetMini(arch) => (arch.in_channels, None),
            ModelSpec::LeNet5(arch) => (arch.in_channels, Some(arch.image_size)),
        }
    }

    /// Output classes.
    pub fn classes(&self) -> usize {
        match self {
            ModelSpec::ResNetMini(arch) => arch.classes,
            ModelSpec::LeNet5(arch) => arch.classes,
        }
    }

    /// The Table-2 freeze policies meaningful for this topology.
    pub fn freeze_policies(&self) -> &'static [FreezePolicy] {
        &FreezePolicy::ALL
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_nn::Checkpoint;

    #[test]
    fn kind_keys_and_parsing() {
        assert_eq!(ModelKind::ResNetMini.key(), "resnet-mini");
        assert_eq!(ModelKind::LeNet5.key(), "lenet5");
        assert_eq!(
            "resnet-mini".parse::<ModelKind>(),
            Ok(ModelKind::ResNetMini)
        );
        assert_eq!("lenet5".parse::<ModelKind>(), Ok(ModelKind::LeNet5));
        assert!("vgg".parse::<ModelKind>().is_err());
    }

    #[test]
    fn model_kind_missing_defaults_to_resnet_mini() {
        // Pre-seam serialized maps lack the field entirely.
        let got: ModelKind =
            serde::field(&[], "model").expect("missing field must default, not error");
        assert_eq!(got, ModelKind::ResNetMini);
    }

    #[test]
    fn specs_build_matching_networks() {
        for spec in [
            ModelSpec::ResNetMini(ResNetMiniConfig::tiny()),
            ModelSpec::LeNet5(LeNet5Config::tiny()),
        ] {
            let mut net = spec.build(&HardwareConfig::fp32());
            assert_eq!(net.kind(), spec.kind());
            assert_eq!(net.hardware().model_tag, spec.kind());
            let (c, s) = spec.input_shape();
            let s = s.unwrap_or(8);
            let y = net.forward(
                &ExecCtx::serial(),
                &Tensor::zeros(&[2, c, s, s]),
                Mode::Eval,
            );
            assert_eq!(y.dims(), &[2, spec.classes()]);
            // One noise stream per analog layer.
            assert_eq!(net.noise_states().len(), net.error_budget().len());
        }
    }

    #[test]
    fn spec_round_trips_through_serde() {
        for spec in [
            ModelSpec::ResNetMini(ResNetMiniConfig::tiny()),
            ModelSpec::LeNet5(LeNet5Config::quick()),
        ] {
            let v = serde::Serialize::to_value(&spec);
            let back = <ModelSpec as serde::Deserialize>::from_value(&v).expect("round trip");
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn checkpoints_transfer_between_boxed_and_concrete() {
        // A checkpoint captured through the trait object must load into a
        // concrete net of the same architecture (same key-space).
        let spec = ModelSpec::LeNet5(LeNet5Config::tiny());
        let mut boxed = spec.build(&HardwareConfig::fp32());
        let ckpt = Checkpoint::from_layer(&mut *boxed);
        let mut concrete = LeNet5::new(&LeNet5Config::tiny(), &HardwareConfig::fp32());
        ckpt.load_into(&mut concrete).expect("same key-space");
    }
}
