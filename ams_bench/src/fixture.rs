//! Set-up: everything a workload needs before its measured phase, built
//! fresh in every run.
//!
//! Set-up trains through [`Experiments`] into a per-run temporary results
//! directory, so no checkpoint is ever shared between runs (a parent
//! commit's checkpoint cannot leak into a change's run). It is repeated
//! [`SETUP_REPS`] times; `setup_s` is the median, and the repetitions
//! must produce bit-identical checkpoints.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use ams_core::vmac::Vmac;
use ams_data::SynthImageNet;
use ams_exp::{Experiments, Scale};
use ams_models::{HardwareConfig, ModelKind, ModelSpec, SharedModelWeights};
use ams_nn::Checkpoint;
use ams_quant::QuantConfig;
use ams_tensor::ExecCtx;

use crate::stats::median;
use crate::trace::Tracer;

/// Set-ups per run (the reported `setup_s` is their median).
pub const SETUP_REPS: usize = 3;

/// The ENOB of the AMS configuration trained, served and replayed (the
/// quick scale's Table-2 operating point).
pub const AMS_ENOB: f64 = 4.5;

/// `N_mult` of every VMAC (the paper's Fig. 4 setting).
pub const N_MULT: usize = 8;

/// The scale preset the benchmark runs: quick (or test, for smoke runs)
/// sizes, with a training budget cut so set-up can be repeated, and the
/// dataset and training streams drawn from the run's seed.
pub fn bench_scale(smoke: bool, seed: u64) -> Scale {
    let mut s = if smoke { Scale::test() } else { Scale::quick() };
    s.name = "bench".to_string();
    s.fp32_epochs = 1;
    s.retrain_epochs = 1;
    s.eval_passes = 1;
    s.synth.seed = seed;
    s.seed = seed;
    s
}

/// The w8a8 VMAC at `enob`.
pub fn vmac(enob: f64) -> Vmac {
    Vmac::new(8, 8, N_MULT, enob)
}

/// The trained state every workload starts from.
pub struct Fixture {
    /// The scale everything was built at.
    pub scale: Scale,
    /// The network architecture.
    pub spec: ModelSpec,
    /// Train and validation splits generated from the run's seed.
    pub data: SynthImageNet,
    /// The FP32 baseline checkpoint.
    pub fp32: Checkpoint,
    /// The w8a8 DoReFa baseline checkpoint (retrained from `fp32`).
    pub quant: Checkpoint,
    /// The AMS serving hardware: w8a8 at [`AMS_ENOB`].
    pub ams_hw: HardwareConfig,
    /// `quant` frozen for serving under `ams_hw`.
    pub frozen: Arc<SharedModelWeights>,
    /// Median set-up seconds.
    pub setup_s: f64,
    /// Whether every repetition produced bit-identical checkpoints.
    pub deterministic: bool,
}

/// Removes its directory when dropped.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates (emptying first) `path`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating the directory.
    pub fn new(path: PathBuf) -> std::io::Result<Self> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn same_bits(a: &Checkpoint, b: &Checkpoint) -> bool {
    a.len() == b.len()
        && a.iter().zip(b.iter()).all(|((na, ta), (nb, tb))| {
            na == nb
                && ta.dims() == tb.dims()
                && ta
                    .data()
                    .iter()
                    .zip(tb.data())
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        })
}

struct Trained {
    data: SynthImageNet,
    fp32: Checkpoint,
    quant: Checkpoint,
    frozen: Arc<SharedModelWeights>,
}

fn set_up_once(
    scale: &Scale,
    spec: &ModelSpec,
    hw: &HardwareConfig,
    dir: &Path,
    tr: &mut Tracer,
) -> Trained {
    tr.begin("exp.setup.synth");
    let exp = Experiments::new(scale.clone(), dir).with_ctx(ExecCtx::serial());
    tr.end();
    let (fp32, _) = tr.span("exp.setup.fp32_train", || exp.fp32_baseline());
    let (quant, _) = tr.span("exp.setup.quant_train", || {
        exp.quantized_baseline(QuantConfig::w8a8())
    });
    let frozen = tr.span("models.freeze", || {
        let mut net = spec.build(hw);
        quant
            .load_into(&mut *net)
            .expect("checkpoint matches the architecture it trained");
        Arc::new(net.freeze_shared_weights(&ExecCtx::serial()))
    });
    Trained {
        data: exp.data().clone(),
        fp32,
        quant,
        frozen,
    }
}

impl Fixture {
    /// Sets up [`SETUP_REPS`] times under `root`, keeping the last
    /// repetition's artifacts.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating a results directory.
    pub fn build(scale: Scale, root: &Path, tr: &mut Tracer) -> std::io::Result<Fixture> {
        let spec = scale.model_spec(ModelKind::ResNetMini);
        let ams_hw = HardwareConfig::ams(QuantConfig::w8a8(), vmac(AMS_ENOB));
        let mut times = Vec::with_capacity(SETUP_REPS);
        let mut runs: Vec<Trained> = Vec::with_capacity(SETUP_REPS);
        for rep in 0..SETUP_REPS {
            let dir = TempDir::new(root.join(format!("setup-{rep}")))?;
            tr.begin("exp.setup");
            let t0 = Instant::now();
            runs.push(set_up_once(&scale, &spec, &ams_hw, dir.path(), tr));
            times.push(t0.elapsed().as_secs_f64());
            tr.end();
        }
        let last = runs.pop().expect("SETUP_REPS > 0");
        let deterministic = runs
            .iter()
            .all(|r| same_bits(&r.fp32, &last.fp32) && same_bits(&r.quant, &last.quant));
        Ok(Fixture {
            scale,
            spec,
            data: last.data,
            fp32: last.fp32,
            quant: last.quant,
            ams_hw,
            frozen: last.frozen,
            setup_s: median(&times).expect("SETUP_REPS > 0"),
            deterministic,
        })
    }
}
