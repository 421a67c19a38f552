//! Per-layer error models as data.
//!
//! The paper's headline abstraction is "error-free dot product plus
//! additive error" (Eq. 1/2), but §4 notes that modeling the multipliers
//! and the ADC separately — or simulating each VMAC conversion — enables
//! finer-grained analysis. Those refinements are parameters of one
//! process, so one struct, [`LayerError`], holds them as fields: an
//! additive σ rule, an optional operand simulator and a weight
//! realization. The network layers, the trainer, the sweep engine and the
//! CLI select a configuration through one serializable
//! [`ErrorModelConfig`], and [`ErrorModelConfig::build`] turns it into
//! one layer's [`LayerError`].
//!
//! # The noise context
//!
//! Every evaluation of an error model happens under a [`NoiseContext`]:
//! the simulated inference time `t`, the layer id, and an optional
//! per-request RNG stream handle. Layers build one context per forward
//! pass and hand it to [`LayerError::inject`] and
//! [`LayerError::realize_weights`]. Time matters for conductance drift
//! ([`ErrorModelConfig::DriftingPcm`]): accuracy becomes a function of
//! *when* you infer, not just ENOB/N_mult.
//!
//! # RNG / resume contract
//!
//! Every [`LayerError`] — including one that injects nothing — owns
//! exactly **one** [`GaussianInjector`] stream, whose cursor
//! [`LayerError::noise_state`] snapshots. That keeps the checkpoint
//! format of DESIGN.md §9 (one `RngState` per analog layer) valid for
//! every configuration, and it keeps [`ErrorModelConfig::Lumped`]
//! bit-identical to a bare `GaussianInjector` at the layer's seed: same
//! stream, same draw order.
//!
//! # Choosing a configuration
//!
//! [`ErrorModelConfig::Lumped`], the paper's main method, is the default
//! and the cheapest: use it for training and every headline figure.
//! `Ideal` isolates quantization effects from AMS error; `Composite`
//! studies multiplier/ADC trade-offs; `PerVmac` validates the Gaussian
//! lumping claim at network scale or runs ΔΣ / reference-scaled /
//! partitioned converters end to end; `DriftingPcm` gives figD's
//! accuracy-vs-time curves. Each variant documents its model.

use serde::{Deserialize, Serialize};
use std::fmt;

use ams_tensor::obs::WelfordState;
use ams_tensor::{rng, Tensor};

use crate::composite::CompositeError;
use crate::inject::{checked_sigma_f32, layer_error_sigma, GaussianInjector};
use crate::mismatch::MismatchModel;
use crate::partition::PartitionedVmac;
use crate::vmac::Vmac;
use crate::vmac_sim::{AdcBehavior, VmacSimulator};

/// The reference time at which a drifting conductance equals its
/// programmed value: `G(DRIFT_T0) = G0` exactly. In seconds, following
/// the PCM drift literature's `t0 = 1 s` convention.
pub const DRIFT_T0: f64 = 1.0;

/// Default drift exponent ν of [`ErrorModelConfig::drifting_pcm`]
/// (typical reported PCM values sit in 0.03–0.1).
pub const DRIFT_NU_DEFAULT: f64 = 0.06;

/// Default per-weight spread of the drift exponent. A nonzero spread
/// makes drift more than a global output scale, so affine compensation
/// cannot trivially undo it — matching measured device-to-device
/// variation.
pub const DRIFT_NU_STD_DEFAULT: f64 = 0.02;

/// Default relative programming noise σ of
/// [`ErrorModelConfig::drifting_pcm`]: each weight is stored as
/// `w·(1 + σ_prog·g)` at programming time.
pub const DRIFT_SIGMA_PROG_DEFAULT: f64 = 0.05;

/// Everything one evaluation of an error model may depend on, built once
/// per forward pass by the layer and threaded to every
/// [`LayerError::inject`] / [`LayerError::realize_weights`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseContext {
    /// Simulated inference time in seconds (drift models read it; every
    /// other model ignores it). Defaults to [`DRIFT_T0`].
    pub t: f64,
    /// The layer's noise index (the same id its RNG stream was seeded
    /// under).
    pub layer: u64,
    /// When set, the model reseeds at this stream handle before
    /// injecting — the serving path's per-request noise seed.
    pub stream: Option<u64>,
}

impl NoiseContext {
    /// A context for `layer` at the reference time.
    pub fn eval(layer: u64) -> Self {
        NoiseContext {
            t: DRIFT_T0,
            layer,
            stream: None,
        }
    }

    /// This context at simulated inference time `t` (seconds).
    pub fn at_time(mut self, t: f64) -> Self {
        self.t = t;
        self
    }

    /// This context with a per-request RNG stream handle.
    pub fn with_stream(mut self, stream_seed: u64) -> Self {
        self.stream = Some(stream_seed);
        self
    }
}

/// Which error-model configuration family a layer runs.
///
/// Displayed (and parsed) as the CLI spellings `ideal`, `lumped`,
/// `composite`, `per-vmac`, `drifting-pcm`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ErrorModelKind {
    /// No injected error.
    Ideal,
    /// Single lumped Gaussian per output activation (paper Eq. 1/2).
    Lumped,
    /// Separate multiplier + ADC budgets folded to one Gaussian (§4).
    Composite,
    /// Chunked per-conversion ADC simulation at eval time (§4).
    PerVmac,
    /// PCM-style programming noise + time-dependent conductance drift.
    DriftingPcm,
}

impl fmt::Display for ErrorModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ErrorModelKind::Ideal => "ideal",
            ErrorModelKind::Lumped => "lumped",
            ErrorModelKind::Composite => "composite",
            ErrorModelKind::PerVmac => "per-vmac",
            ErrorModelKind::DriftingPcm => "drifting-pcm",
        })
    }
}

impl std::str::FromStr for ErrorModelKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        use ErrorModelKind::*;
        [Ideal, Lumped, Composite, PerVmac, DriftingPcm]
            .into_iter()
            .find(|k| k.to_string() == s)
            .ok_or_else(|| {
                format!(
                    "unknown error model {s:?}; expected lumped|composite|per-vmac|drifting-pcm|ideal"
                )
            })
    }
}

/// Multiplication-partitioning parameters for the per-VMAC model: split
/// each multiply into `n_w × n_x` slices, each digitized at `slice_enob`
/// bits (paper §4, see [`PartitionedVmac`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PartitionSpec {
    /// Weight-operand slice count.
    pub n_w: u32,
    /// Activation-operand slice count.
    pub n_x: u32,
    /// Per-slice conversion resolution in bits.
    pub slice_enob: f64,
}

/// Serializable selection of an error model plus its parameters.
///
/// This is what travels through `HardwareConfig`, the CLI, and training
/// checkpoints; [`ErrorModelConfig::build`] turns it into one layer's
/// [`LayerError`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum ErrorModelConfig {
    /// No injected error.
    Ideal,
    /// The paper's lumped Gaussian (Eq. 1/2). The default, bit-identical
    /// to a bare `GaussianInjector` at the Eq. 2 σ.
    #[default]
    Lumped,
    /// Multiplier + ADC split: the layer's `Vmac` describes the ADC and
    /// `multiplier_sigma` the per-multiplier RMS error, combined per
    /// [`CompositeError`] into one Gaussian.
    Composite {
        /// RMS error of one analog multiplier, in product full-scale units.
        multiplier_sigma: f64,
    },
    /// Chunked per-conversion simulation at eval time, with an optional
    /// operand partition folded into the conversion resolution.
    PerVmac {
        /// How each partial-sum conversion behaves.
        behavior: AdcBehavior,
        /// Optional multiplication partitioning (paper §4).
        partition: Option<PartitionSpec>,
    },
    /// PCM-style weight storage: programming noise at write time plus a
    /// per-weight conductance drift `G(t) = G0·(t/t0)^-ν_i` with
    /// `ν_i ~ N(nu, nu_std²)`. At `t = DRIFT_T0` the drift factor is
    /// exactly 1, reducing the model to programming noise only. A
    /// weight-domain model: it injects no additive activation error and
    /// always routes layers through the f32 reference kernels.
    DriftingPcm {
        /// Mean drift exponent ν.
        nu: f64,
        /// Device-to-device standard deviation of ν.
        nu_std: f64,
        /// Relative programming-noise σ (`w·(1 + σ·g)` at write time).
        sigma_prog: f64,
    },
}

impl ErrorModelConfig {
    /// The plain per-VMAC configuration (quantizing ADC, no partition) —
    /// what `--error-model per-vmac` selects by default.
    pub fn per_vmac() -> Self {
        ErrorModelConfig::PerVmac {
            behavior: AdcBehavior::Quantizing,
            partition: None,
        }
    }

    /// A drifting-PCM configuration at drift exponent `nu` with the
    /// default exponent spread and programming noise — what
    /// `--error-model drifting-pcm` (optionally `--drift-nu`) selects.
    pub fn drifting_pcm(nu: f64) -> Self {
        ErrorModelConfig::DriftingPcm {
            nu,
            nu_std: DRIFT_NU_STD_DEFAULT,
            sigma_prog: DRIFT_SIGMA_PROG_DEFAULT,
        }
    }

    /// Which configuration family this is.
    pub fn kind(&self) -> ErrorModelKind {
        match self {
            ErrorModelConfig::Ideal => ErrorModelKind::Ideal,
            ErrorModelConfig::Lumped => ErrorModelKind::Lumped,
            ErrorModelConfig::Composite { .. } => ErrorModelKind::Composite,
            ErrorModelConfig::PerVmac { .. } => ErrorModelKind::PerVmac,
            ErrorModelConfig::DriftingPcm { .. } => ErrorModelKind::DriftingPcm,
        }
    }

    /// Builds the live model for one layer.
    ///
    /// `vmac` is the layer's converter geometry (`None` on hardware
    /// without an AMS error budget — the model then injects nothing),
    /// `mismatch` the optional static device-mismatch overlay, and
    /// `stream_seed` the layer's noise-stream seed (what a bare
    /// `GaussianInjector::new` at the layer would take).
    ///
    /// # Panics
    ///
    /// Panics if a [`PartitionSpec`] does not divide the operand bits
    /// evenly (see [`PartitionedVmac::new`]), composite or ADC parameters
    /// are invalid (see [`CompositeError::new`], [`VmacSimulator::new`]),
    /// or drift parameters are negative or non-finite.
    pub fn build(
        &self,
        vmac: Option<Vmac>,
        mismatch: Option<MismatchModel>,
        stream_seed: u64,
    ) -> LayerError {
        let mut model = LayerError {
            kind: self.kind(),
            additive: vmac.map(AdditiveError::Vmac),
            operand_sim: None,
            weights: mismatch.map(WeightRealization::Mismatch),
            injector: GaussianInjector::new(stream_seed),
        };
        match *self {
            ErrorModelConfig::Ideal => model.additive = None,
            ErrorModelConfig::Lumped => {}
            ErrorModelConfig::Composite { multiplier_sigma } => {
                model.additive = vmac
                    .map(|v| AdditiveError::Composite(CompositeError::new(v, multiplier_sigma)));
            }
            ErrorModelConfig::PerVmac {
                behavior,
                partition,
            } => {
                if let Some(v) = vmac {
                    let v = partition.map_or(v, |spec| partition_equivalent(v, spec));
                    model.additive = Some(AdditiveError::Vmac(v));
                    model.operand_sim = Some(VmacSimulator::new(v, behavior));
                }
            }
            ErrorModelConfig::DriftingPcm {
                nu,
                nu_std,
                sigma_prog,
            } => {
                for (name, v) in [("nu", nu), ("nu_std", nu_std), ("sigma_prog", sigma_prog)] {
                    assert!(v.is_finite() && v >= 0.0, "DriftingPcm: bad {name} {v}");
                }
                model.additive = None;
                model.weights = Some(WeightRealization::DriftingPcm {
                    nu,
                    nu_std,
                    sigma_prog,
                    chip_seed: stream_seed,
                    mismatch,
                });
            }
        }
        model
    }
}

/// Folds a partitioned multiply into an equivalent unpartitioned `Vmac`
/// whose single-conversion error variance matches the partition's summed
/// slice errors, so the chunked simulator can run it directly.
fn partition_equivalent(vmac: Vmac, spec: PartitionSpec) -> Vmac {
    let pv = PartitionedVmac::new(vmac, spec.n_w, spec.n_x, spec.slice_enob)
        .unwrap_or_else(|e| panic!("invalid partition for {vmac}: {e}"));
    // One output chunk (n_tot = n_mult) isolates a single conversion's
    // variance; invert LSB²/12 with LSB = N_mult·2^(1−ENOB) for the ENOB
    // a monolithic converter would need to match it.
    let var_conv = pv.total_error_variance(vmac.n_mult);
    let n = vmac.n_mult as f64;
    vmac.with_enob(1.0 - 0.5 * (12.0 * var_conv / (n * n)).log2())
}

/// The additive error a layer injects at its output.
#[derive(Debug, Clone, Copy)]
enum AdditiveError {
    /// The Eq. 2 σ of this converter: the lumped model, and the per-VMAC
    /// model's training fallback (the chunked converter is not
    /// differentiable, and the paper trains against the lumped model).
    Vmac(Vmac),
    /// Multiplier and ADC budgets (paper §4) folded to one σ.
    Composite(CompositeError),
}

/// How the weights a layer computes with differ from its programmed ones.
#[derive(Debug, Clone, Copy)]
enum WeightRealization {
    /// Static device mismatch.
    Mismatch(MismatchModel),
    /// PCM-style storage: weight `i` is realized as
    /// `w_i · (1 + σ_prog·g1_i) · (t/t0)^(−ν_i)` with `ν_i = ν + ν_std·g2_i`,
    /// both Gaussians drawn per `(chip seed, layer)`: the chip is
    /// programmed once, so like [`MismatchModel`] the draw is a device
    /// property, invariant under `reseed`. At `t = t0` the drift factor is
    /// exactly 1. Mismatch, when set, applies first.
    DriftingPcm {
        nu: f64,
        nu_std: f64,
        sigma_prog: f64,
        chip_seed: u64,
        mismatch: Option<MismatchModel>,
    },
}

/// SplitMix-style mix of the chip seed and a layer index — the same
/// derivation [`MismatchModel`] uses, on an independent constant, so the
/// programming-noise stream never aliases the mismatch stream.
fn drift_layer_seed(chip_seed: u64, layer: u64) -> u64 {
    let mut z = chip_seed ^ layer.wrapping_mul(0xA24B_AED4_963E_E407);
    z = (z ^ (z >> 31)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z ^ (z >> 29)
}

/// One layer's hardware error model, built by [`ErrorModelConfig::build`]:
/// the additive error at its output, the chunked conversion simulator
/// that replaces its GEMM at eval time (per-VMAC), the weight-domain
/// realization, and the one noise stream the additive error draws from.
#[derive(Debug)]
pub struct LayerError {
    kind: ErrorModelKind,
    additive: Option<AdditiveError>,
    operand_sim: Option<VmacSimulator>,
    weights: Option<WeightRealization>,
    injector: GaussianInjector,
}

// GEMM workers may share one layer's model: a non-`Send + Sync` field fails here.
const _: () = {
    const fn shareable<T: Send + Sync>() {}
    shareable::<LayerError>()
};

impl LayerError {
    /// Which configuration family built this model (metric keys).
    pub fn kind(&self) -> ErrorModelKind {
        self.kind
    }

    /// The σ of the additive error for a layer with `n_tot` multiplies
    /// per output activation (Eq. 2), narrowed to `f32` with a loud
    /// warning when it underflows; `None` when the model adds nothing.
    /// Layers call it once, at build: `n_tot` is fixed per layer.
    pub fn sigma(&self, n_tot: usize) -> Option<f32> {
        Some(match self.additive? {
            AdditiveError::Vmac(v) => layer_error_sigma(&v, n_tot),
            AdditiveError::Composite(c) => {
                checked_sigma_f32(c.total_error_sigma(n_tot), "composite")
            }
        })
    }

    /// Adds `N(0, σ²)` to `acts` in place, first reseeding at
    /// `ctx.stream` when one is set; `sigma` is the layer's
    /// [`LayerError::sigma`]. With `trace` set it returns Welford
    /// statistics of the injected samples, drawing the **identical RNG
    /// stream**; an empty state otherwise.
    pub fn inject(
        &mut self,
        ctx: &NoiseContext,
        acts: &mut [f32],
        sigma: Option<f32>,
        trace: bool,
    ) -> WelfordState {
        if let Some(s) = ctx.stream {
            self.injector.reseed(s);
        }
        match sigma {
            Some(s) => self.injector.inject_sigma_slice(acts, s, trace),
            None => WelfordState::new(),
        }
    }

    /// The weights perturbed by device mismatch, programming noise and
    /// conductance drift at `ctx.t`, or `None` when the model stores them
    /// exactly. Deterministic per `(chip seed, ctx.layer, ctx.t)` and
    /// never touches the noise stream, so layers fold it once into their
    /// frozen eval weights.
    pub fn realize_weights(&self, weights: &Tensor, ctx: &NoiseContext) -> Option<Tensor> {
        match self.weights? {
            WeightRealization::Mismatch(m) => Some(m.apply(weights, ctx.layer)),
            WeightRealization::DriftingPcm {
                nu,
                nu_std,
                sigma_prog,
                chip_seed,
                mismatch,
            } => {
                assert!(
                    ctx.t.is_finite() && ctx.t > 0.0,
                    "DriftingPcm: inference time must be positive and finite, got {}",
                    ctx.t
                );
                let mut realized = match mismatch {
                    Some(m) => m.apply(weights, ctx.layer),
                    None => weights.clone(),
                };
                // Two draws per weight, in stream order: g1 (programming
                // noise), then g2 (drift-exponent spread).
                let mut draws = vec![0.0f32; 2 * realized.len()];
                let mut r = rng::seeded(drift_layer_seed(chip_seed, ctx.layer));
                rng::fill_standard_normal(&mut r, &mut draws);
                let sigma_prog = sigma_prog as f32;
                let ratio = ctx.t / DRIFT_T0;
                for (w, g) in realized.data_mut().iter_mut().zip(draws.chunks_exact(2)) {
                    let (g1, g2) = (g[0], g[1]);
                    let nu_i = nu + nu_std * f64::from(g2);
                    // `1.0.powf(x)` is exactly 1, so t = t0 reduces bitwise
                    // to programming noise only; guard anyway so the
                    // reduction never hinges on a libm edge case.
                    let drift = if ratio == 1.0 { 1.0 } else { ratio.powf(-nu_i) };
                    *w *= (1.0 + sigma_prog * g1) * drift as f32;
                }
                Some(realized)
            }
        }
    }

    /// Whether [`LayerError::realize_weights`] perturbs. Such layers
    /// keep the f32 kernels: the integer GEMM works on pre-coded weights.
    pub fn perturbs_weights(&self) -> bool {
        self.weights.is_some()
    }

    /// The chunked conversion simulator that replaces the GEMM at eval
    /// time (per-VMAC with a VMAC), any partition folded in.
    pub fn operand_sim(&self) -> Option<VmacSimulator> {
        self.operand_sim
    }

    /// Repositions the noise stream at a fresh seed (one per validation
    /// pass — see `reseed_noise` on the networks).
    pub fn reseed(&mut self, stream_seed: u64) {
        self.injector.reseed(stream_seed);
    }

    /// The noise stream's cursor, for a training checkpoint.
    pub fn noise_state(&self) -> rng::RngState {
        self.injector.rng_state()
    }

    /// Repositions the noise stream at a captured cursor.
    pub fn restore_noise_state(&mut self, state: &rng::RngState) {
        self.injector.restore_rng_state(state);
    }
}

/// The call shape of `ams_bench`'s layer replay, its only user. The
/// benchmark change that retires the replay (ROADMAP item 1) deletes it
/// and `HardwareConfig::build_error_model`.
pub trait ErrorModel {
    /// Adds the error of a layer with `n_tot` multiplies per output
    /// activation to `acts`, first reseeding at `ctx.stream` when set.
    fn inject(&mut self, ctx: &NoiseContext, acts: &mut Tensor, n_tot: usize);

    /// [`ErrorModel::inject`] over a raw activation slice.
    fn inject_slice(&mut self, ctx: &NoiseContext, acts: &mut [f32], n_tot: usize);
}

impl ErrorModel for LayerError {
    fn inject(&mut self, ctx: &NoiseContext, acts: &mut Tensor, n_tot: usize) {
        self.inject_slice(ctx, acts.data_mut(), n_tot);
    }

    fn inject_slice(&mut self, ctx: &NoiseContext, acts: &mut [f32], n_tot: usize) {
        let sigma = self.sigma(n_tot);
        LayerError::inject(self, ctx, acts, sigma, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_round_trips_through_display_and_parse() {
        for kind in [
            ErrorModelKind::Ideal,
            ErrorModelKind::Lumped,
            ErrorModelKind::Composite,
            ErrorModelKind::PerVmac,
            ErrorModelKind::DriftingPcm,
        ] {
            assert_eq!(kind.to_string().parse::<ErrorModelKind>().unwrap(), kind);
        }
        assert!("bogus".parse::<ErrorModelKind>().is_err());
    }

    #[test]
    fn config_serde_round_trips() {
        for cfg in [
            ErrorModelConfig::Ideal,
            ErrorModelConfig::Lumped,
            ErrorModelConfig::Composite {
                multiplier_sigma: 1e-3,
            },
            ErrorModelConfig::PerVmac {
                behavior: AdcBehavior::DeltaSigma {
                    final_extra_bits: 2.0,
                },
                partition: Some(PartitionSpec {
                    n_w: 2,
                    n_x: 2,
                    slice_enob: 10.0,
                }),
            },
            ErrorModelConfig::drifting_pcm(0.08),
        ] {
            let json = serde_json::to_string(&cfg).unwrap();
            let back: ErrorModelConfig = serde_json::from_str(&json).unwrap();
            assert_eq!(back, cfg);
        }
    }

    #[test]
    fn lumped_matches_raw_injector_bitwise() {
        // The lumped model with the same stream seed produces
        // byte-identical activations to a bare GaussianInjector.
        let vmac = Vmac::new(8, 8, 8, 9.0);
        let n_tot = 576;
        let seed = 0xC0FFEE;
        let ctx = NoiseContext::eval(0);
        let mut legacy = GaussianInjector::new(seed);
        let mut a = Tensor::zeros(&[2, 4, 6, 6]);
        legacy.inject_sigma(&mut a, layer_error_sigma(&vmac, n_tot));

        let mut model = ErrorModelConfig::Lumped.build(Some(vmac), None, seed);
        let sigma = model.sigma(n_tot);
        let mut b = Tensor::zeros(&[2, 4, 6, 6]);
        model.inject(&ctx, b.data_mut(), sigma, false);
        assert_eq!(a, b);

        // Traced injection draws the identical stream.
        let mut traced = ErrorModelConfig::Lumped.build(Some(vmac), None, seed);
        let mut c = Tensor::zeros(&[2, 4, 6, 6]);
        let stats = traced.inject(&ctx, c.data_mut(), sigma, true);
        assert_eq!(a, c);
        assert_eq!(stats.count, a.len() as u64);
    }

    #[test]
    fn ideal_injects_nothing_but_keeps_one_cursor() {
        let ctx = NoiseContext::eval(0);
        let mut model = ErrorModelConfig::Ideal.build(Some(Vmac::default()), None, 7);
        let sigma = model.sigma(64);
        let mut t = Tensor::ones(&[3, 3]);
        model.inject(&ctx, t.data_mut(), sigma, false);
        assert_eq!(t, Tensor::ones(&[3, 3]));
        assert!(sigma.is_none());
        assert!(model.inject(&ctx, t.data_mut(), sigma, true).is_empty());
        // The one cursor is the layer's seeded stream, untouched.
        assert_eq!(model.noise_state(), GaussianInjector::new(7).rng_state());
    }

    #[test]
    fn composite_sigma_matches_core_model() {
        let vmac = Vmac::new(8, 8, 8, 10.0);
        let sigma_m = 2e-3;
        let model = ErrorModelConfig::Composite {
            multiplier_sigma: sigma_m,
        }
        .build(Some(vmac), None, 1);
        let expect = CompositeError::new(vmac, sigma_m).total_error_sigma(512) as f32;
        assert_eq!(model.sigma(512), Some(expect));
        assert!(model.operand_sim().is_none());
    }

    #[test]
    fn per_vmac_exposes_simulator_and_lumped_hint() {
        let vmac = Vmac::new(8, 8, 8, 9.0);
        let model = ErrorModelConfig::per_vmac().build(Some(vmac), None, 1);
        let sim = model.operand_sim().expect("per-VMAC exposes a simulator");
        assert_eq!(*sim.vmac(), vmac);
        assert_eq!(sim.behavior(), AdcBehavior::Quantizing);
        assert_eq!(model.sigma(512), Some(layer_error_sigma(&vmac, 512)));
    }

    #[test]
    fn degenerate_partition_is_identity() {
        // A 1×1 partition at the base ENOB is exactly the unpartitioned
        // converter, so the folded equivalent ENOB must round-trip.
        let vmac = Vmac::new(9, 9, 8, 12.0);
        let eq = partition_equivalent(
            vmac,
            PartitionSpec {
                n_w: 1,
                n_x: 1,
                slice_enob: 12.0,
            },
        );
        assert!((eq.enob - 12.0).abs() < 1e-9, "enob {}", eq.enob);
    }

    #[test]
    fn partition_fold_tracks_slice_resolution() {
        // Slicing 9-bit operands 2×2 at the same 10-bit slice resolution
        // costs a hair of ENOB (four conversions instead of one, the top
        // slices dominating), while raising the slice resolution buys it
        // back — the partition's whole point is that slice conversions
        // are cheap enough to over-provision.
        let vmac = Vmac::new(9, 9, 8, 10.0);
        let same = partition_equivalent(
            vmac,
            PartitionSpec {
                n_w: 2,
                n_x: 2,
                slice_enob: 10.0,
            },
        );
        assert!(
            same.enob < 10.0 && same.enob > 9.8,
            "equivalent enob {}",
            same.enob
        );
        let finer = partition_equivalent(
            vmac,
            PartitionSpec {
                n_w: 2,
                n_x: 2,
                slice_enob: 12.0,
            },
        );
        assert!(
            finer.enob > same.enob + 1.5,
            "equivalent enob {}",
            finer.enob
        );
    }

    #[test]
    #[should_panic(expected = "invalid partition")]
    fn bad_partition_rejected_at_build() {
        // 8-bit weights have 7 magnitude bits — not divisible by 2.
        ErrorModelConfig::PerVmac {
            behavior: AdcBehavior::Quantizing,
            partition: Some(PartitionSpec {
                n_w: 2,
                n_x: 1,
                slice_enob: 8.0,
            }),
        }
        .build(Some(Vmac::new(8, 8, 8, 10.0)), None, 1);
    }

    #[test]
    fn mismatch_overlay_applies_through_any_model() {
        let mismatch = MismatchModel::new(0.05, 42);
        let w = Tensor::ones(&[4, 4]);
        let direct = mismatch.apply(&w, 3);
        let ctx = NoiseContext::eval(3);
        for cfg in [ErrorModelConfig::Ideal, ErrorModelConfig::Lumped] {
            let model = cfg.build(None, Some(mismatch), 1);
            let via = model
                .realize_weights(&w, &ctx)
                .expect("mismatch configured");
            assert_eq!(via, direct);
        }
        let bare = ErrorModelConfig::Lumped.build(None, None, 1);
        assert!(bare.realize_weights(&w, &ctx).is_none());
    }

    #[test]
    fn per_slice_injection_matches_batch1_injects() {
        // The serving contract: a per-image stream handle on the context
        // reproduces a sequence of offline batch-1 injections bit-exactly.
        let vmac = Vmac::new(8, 8, 8, 9.0);
        let n_tot = 576;
        let seeds = [11u64, 22, 33];
        let per_image = 4 * 6 * 6;

        let mut offline = Vec::new();
        for &s in &seeds {
            let mut model = ErrorModelConfig::Lumped.build(Some(vmac), None, 0);
            model.reseed(s);
            let mut t = Tensor::zeros(&[1, 4, 6, 6]);
            let sigma = model.sigma(n_tot);
            model.inject(&NoiseContext::eval(0), t.data_mut(), sigma, false);
            offline.extend_from_slice(t.data());
        }

        let mut batched = Tensor::zeros(&[3, 4, 6, 6]);
        let mut model = ErrorModelConfig::Lumped.build(Some(vmac), None, 0);
        let sigma = model.sigma(n_tot);
        for (i, chunk) in batched.data_mut().chunks_mut(per_image).enumerate() {
            let ctx = NoiseContext::eval(0).with_stream(seeds[i]);
            model.inject(&ctx, chunk, sigma, false);
        }
        assert_eq!(batched.data(), &offline[..]);
    }

    #[test]
    fn reseed_and_cursor_restore_reproduce_stream() {
        let vmac = Vmac::new(8, 8, 8, 9.0);
        let ctx = NoiseContext::eval(0);
        let mut model = ErrorModelConfig::Lumped.build(Some(vmac), None, 5);
        let sigma = model.sigma(64);
        let cursor = model.noise_state();
        let mut a = Tensor::zeros(&[8, 8]);
        model.inject(&ctx, a.data_mut(), sigma, false);
        // Restoring the captured cursor replays the identical noise.
        model.restore_noise_state(&cursor);
        let mut b = Tensor::zeros(&[8, 8]);
        model.inject(&ctx, b.data_mut(), sigma, false);
        assert_eq!(a, b);
        // Reseeding to the original seed does too.
        model.reseed(5);
        let mut c = Tensor::zeros(&[8, 8]);
        model.inject(&ctx, c.data_mut(), sigma, false);
        assert_eq!(a, c);
    }

    #[test]
    fn drifting_pcm_at_t0_matches_programming_noise_only() {
        // At t = t0 the drift factor is exactly 1, so the realization
        // must be bitwise identical to a zero-drift (programming-noise
        // only) model with the same chip seed — and its spread must match
        // σ_prog statistically.
        let sigma_prog = 0.05;
        let with_drift = ErrorModelConfig::DriftingPcm {
            nu: 0.06,
            nu_std: 0.02,
            sigma_prog,
        }
        .build(None, None, 99);
        let prog_only = ErrorModelConfig::DriftingPcm {
            nu: 0.0,
            nu_std: 0.0,
            sigma_prog,
        }
        .build(None, None, 99);

        let w = Tensor::ones(&[20_000]);
        let at_t0 = NoiseContext::eval(4).at_time(DRIFT_T0);
        let a = with_drift.realize_weights(&w, &at_t0).unwrap();
        let b = prog_only.realize_weights(&w, &at_t0).unwrap();
        assert_eq!(a, b, "t = t0 must reduce exactly to programming noise");

        let mean = a.mean();
        let var = a
            .data()
            .iter()
            .map(|&x| (x - mean) * (x - mean))
            .sum::<f32>()
            / a.len() as f32;
        assert!((f64::from(mean) - 1.0).abs() < 2e-3, "mean {mean}");
        assert!(
            (f64::from(var.sqrt()) - sigma_prog).abs() < 2e-3,
            "std {}",
            var.sqrt()
        );
    }

    #[test]
    fn drifting_pcm_decays_with_time_and_is_deterministic() {
        let model = ErrorModelConfig::drifting_pcm(0.06).build(None, None, 7);
        let w = Tensor::ones(&[10_000]);
        let day = NoiseContext::eval(0).at_time(86_400.0);
        let year = NoiseContext::eval(0).at_time(3.15e7);
        let at_day = model.realize_weights(&w, &day).unwrap();
        let at_year = model.realize_weights(&w, &year).unwrap();
        // Conductance decays: the mean realized weight shrinks with t.
        assert!(
            f64::from(at_day.mean()) < 0.95,
            "day mean {}",
            at_day.mean()
        );
        assert!(at_year.mean() < at_day.mean());
        // Same chip, same layer, same t: the draw is reproducible — the
        // programming event is a device property, invariant under reseed.
        assert_eq!(at_day, model.realize_weights(&w, &day).unwrap());
        // Different layers realize different devices.
        let other = NoiseContext::eval(1).at_time(86_400.0);
        assert_ne!(at_day, model.realize_weights(&w, &other).unwrap());
    }

    #[test]
    fn drifting_pcm_is_weight_domain_only() {
        let ctx = NoiseContext::eval(0);
        // Even with a VMAC, drift adds nothing at the output.
        let vmac = Vmac::new(8, 8, 8, 9.0);
        let mut model = ErrorModelConfig::drifting_pcm(0.06).build(Some(vmac), None, 1);
        assert!(model.sigma(512).is_none());
        assert!(model.perturbs_weights(), "drift must gate off the i8 path");
        let mut t = Tensor::ones(&[4, 4]);
        model.inject(&ctx, t.data_mut(), model.sigma(64), false);
        assert_eq!(t, Tensor::ones(&[4, 4]), "no additive injection");
        assert_eq!(
            model.noise_state(),
            GaussianInjector::new(1).rng_state(),
            "keeps the one-cursor contract"
        );
    }

    #[test]
    #[should_panic(expected = "inference time must be positive")]
    fn drifting_pcm_rejects_nonpositive_time() {
        let model = ErrorModelConfig::drifting_pcm(0.06).build(None, None, 1);
        let w = Tensor::ones(&[4]);
        model.realize_weights(&w, &NoiseContext::eval(0).at_time(0.0));
    }
}
