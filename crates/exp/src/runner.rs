//! The experiment runners — one method per paper table/figure — with
//! checkpoint caching so binaries can run in any order and share work.

use std::path::{Path, PathBuf};

use ams_core::energy::{
    adc_energy_pj, schreier_energy_pj, survey_lower_hull, synthesize_survey, AdcSurveyPoint,
    SCHREIER_FOM_DB,
};
use ams_core::error_model::{DRIFT_NU_DEFAULT, DRIFT_T0};
use ams_core::mismatch::MismatchModel;
use ams_core::partition::PartitionedVmac;
use ams_core::tradeoff::{AccuracyCurve, TradeoffGrid};
use ams_core::vmac::Vmac;
use ams_core::vmac_sim::{AdcBehavior, VmacSimulator};
use ams_data::SynthImageNet;
use ams_models::{
    ErrorModelConfig, ErrorModelKind, FreezePolicy, HardwareConfig, ModelKind, ModelSpec,
};
use ams_nn::Checkpoint;
use ams_quant::{QuantConfig, QuantScheme};
use ams_tensor::{ExecCtx, KernelDispatch};
use serde::{Deserialize, Serialize};

use crate::compensate::CompensationState;
use crate::report::{print_table, write_csv, Report, Stat};
use crate::scale::Scale;
use crate::sweep::Sweep;
use crate::train::{eval_passes, train};

/// Cached metadata of a trained configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct TrainedMeta {
    accuracy: Stat,
    best_epoch: usize,
}

/// The experiment suite: a scale preset, a results directory for caching
/// and CSV output, and the generated dataset.
///
/// # Example
///
/// ```no_run
/// use ams_exp::{Experiments, Scale};
///
/// let exp = Experiments::new(Scale::test(), "results-test");
/// let fig7 = exp.fig7();
/// assert!(fig7.points.len() > 0);
/// ```
pub struct Experiments {
    scale: Scale,
    dir: PathBuf,
    data: SynthImageNet,
    ctx: ExecCtx,
    resume: bool,
    error_model: ErrorModelConfig,
    model: ModelSpec,
    quant_scheme: QuantScheme,
    at_times: Option<Vec<f64>>,
    compensate: bool,
}

impl Experiments {
    /// Creates the suite, generating the dataset for the given scale.
    pub fn new(scale: Scale, results_dir: impl AsRef<Path>) -> Self {
        let data = scale.synth.generate();
        let model = scale.model_spec(ModelKind::ResNetMini);
        Experiments {
            scale,
            dir: results_dir.as_ref().to_path_buf(),
            data,
            ctx: ExecCtx::serial(),
            resume: false,
            error_model: ErrorModelConfig::default(),
            model,
            quant_scheme: QuantScheme::Dorefa,
            at_times: None,
            compensate: false,
        }
    }

    /// Selects the error model every AMS configuration in this suite
    /// realizes (`--error-model` on the binaries). The default lumped
    /// Gaussian reproduces the pre-trait pipeline bit-for-bit; other
    /// models cache and journal under scenario-suffixed keys so they
    /// never collide with (or corrupt) the lumped artifacts.
    pub fn with_error_model(mut self, error_model: ErrorModelConfig) -> Self {
        self.error_model = error_model;
        self
    }

    /// Selects the network topology every experiment in this suite builds
    /// (`--model` on the binaries), sized by this suite's scale preset.
    pub fn with_model(mut self, kind: ModelKind) -> Self {
        self.model = self.scale.model_spec(kind);
        self
    }

    /// Selects the quantizer scheme applied to every bit-width preset in
    /// this suite (`--quant` on the binaries). The default DoReFa scheme
    /// reproduces the original pipeline bit-for-bit.
    pub fn with_quant(mut self, scheme: QuantScheme) -> Self {
        self.quant_scheme = scheme;
        self
    }

    /// Overrides the scale preset's drift-time grid for the figD sweep
    /// (`--at-times` on the binaries). `None` keeps the preset grid; any
    /// override is a non-default scenario, so its artifacts are suffixed
    /// and never overwrite the committed goldens.
    pub fn with_at_times(mut self, at_times: Option<Vec<f64>>) -> Self {
        self.at_times = at_times;
        self
    }

    /// Applies CorrectNet-style per-layer affine compensation to every
    /// eval-only AMS evaluation in this suite (`--compensate` on the
    /// binaries; see DESIGN.md §15). figD always reports both series
    /// regardless. Non-default scenario: artifacts gain a `-comp` suffix.
    pub fn with_compensate(mut self, compensate: bool) -> Self {
        self.compensate = compensate;
        self
    }

    /// Artifact-key fragment for a non-default kernel dispatch: evaluating
    /// under `--kernel i8` changes eval outputs (statistically, within the
    /// quantization bound), so its artifacts must never share a path with
    /// the f32 goldens. Empty for the default f32 dispatch.
    fn kernel_suffix(&self) -> &'static str {
        match self.ctx.kernel() {
            KernelDispatch::F32 => "",
            KernelDispatch::I8 => "-i8",
        }
    }

    /// The `{model}-{quant}-{error_model}[-kernel][-t…][-comp]` tuple
    /// this suite is running — the key under which non-default scenarios
    /// cache, journal and write CSVs so no two scenarios ever share an
    /// artifact path. The time and compensation dimensions only appear
    /// when set, so every pre-drift scenario keeps its exact key.
    pub fn scenario_key(&self) -> String {
        let mut key = format!(
            "{}-{}-{}{}",
            self.model.kind().key(),
            self.quant_scheme.key(),
            self.error_model.kind(),
            self.kernel_suffix()
        );
        if let Some(times) = &self.at_times {
            let joined: Vec<String> = times.iter().map(|&t| format_time(t)).collect();
            key.push_str(&format!("-t{}", joined.join("+")));
        }
        if self.compensate {
            key.push_str("-comp");
        }
        key
    }

    /// Whether this suite runs the original pipeline (ResNetMini, DoReFa,
    /// lumped Gaussian, f32 kernels, preset drift times, no compensation)
    /// whose artifacts keep their legacy unsuffixed names — the committed
    /// goldens stay byte-identical.
    fn is_default_scenario(&self) -> bool {
        self.model.kind() == ModelKind::ResNetMini
            && self.quant_scheme == QuantScheme::Dorefa
            && self.error_model.kind() == ErrorModelKind::Lumped
            && self.ctx.kernel() == KernelDispatch::F32
            && self.at_times.is_none()
            && !self.compensate
    }

    /// Artifact-name suffix for the full scenario; empty for the default
    /// scenario so existing caches, journals and golden CSVs keep their
    /// exact paths.
    fn scenario_suffix(&self) -> String {
        if self.is_default_scenario() {
            String::new()
        } else {
            format!("_{}", self.scenario_key())
        }
    }

    /// Cache-key suffix for artifacts that depend on the topology, the
    /// quantizer and the kernel dispatch but not the error model (the
    /// quantized digital baselines, which never inject). Eval accuracy is
    /// kernel-dependent — the i8 fast path rounds differently from f32 —
    /// so i8 runs get their own baseline artifacts.
    fn model_quant_suffix(&self) -> String {
        if self.model.kind() == ModelKind::ResNetMini
            && self.quant_scheme == QuantScheme::Dorefa
            && self.ctx.kernel() == KernelDispatch::F32
        {
            String::new()
        } else {
            format!(
                "_{}-{}{}",
                self.model.kind().key(),
                self.quant_scheme.key(),
                self.kernel_suffix()
            )
        }
    }

    /// Cache-key suffix for artifacts that depend only on the topology:
    /// the FP32 baseline trains identically under every quantizer (32-bit
    /// passthrough) and injects nothing.
    fn model_only_suffix(&self) -> String {
        match self.model.kind() {
            ModelKind::ResNetMini => String::new(),
            kind => format!("_{}", kind.key()),
        }
    }

    /// Applies the suite's quantizer scheme to a bit-width preset.
    fn schemed(&self, quant: QuantConfig) -> QuantConfig {
        quant.with_scheme(self.quant_scheme)
    }

    /// Opens the crash-safe journal for a sweep, under its scenario-keyed
    /// name (unsuffixed in the default scenario).
    fn scenario_sweep(&self, stem: &str) -> Sweep {
        self.sweep(&format!("{stem}{}", self.scenario_suffix()))
    }

    /// The stem binaries pass to [`crate::Report::report`]: the scale
    /// name, plus the scenario suffix for non-default scenarios so their
    /// CSVs never overwrite the default (golden) artifacts.
    pub fn report_scale_name(&self) -> String {
        format!("{}{}", self.scale.name, self.scenario_suffix())
    }

    /// Enables crash-resume: sweeps honor their journals (completed points
    /// replay, quarantined points stay skipped) and interrupted training
    /// runs continue bit-identically from their last epoch checkpoint.
    /// Off by default — a plain run clears any journal it finds so every
    /// sweep point recomputes (trained-checkpoint caching still applies).
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Replaces the execution context (e.g. [`ExecCtx::auto`] to use every
    /// core). Results are bit-identical for any thread count; only
    /// wall-clock time changes.
    pub fn with_ctx(mut self, ctx: ExecCtx) -> Self {
        self.ctx = ctx;
        self
    }

    /// Attaches a metrics sink to the execution context, so every layer,
    /// kernel dispatch and sweep arm of this suite records into it (see
    /// the `--metrics <path>` flag on the experiment binaries).
    ///
    /// Swaps the sink in place ([`ExecCtx::set_metrics`]) rather than
    /// cloning the context, so the workspace arena — and any buffers it
    /// has already pooled — stays with this suite.
    pub fn with_metrics(mut self, sink: ams_tensor::MetricsSink) -> Self {
        self.ctx.set_metrics(sink);
        self
    }

    /// The execution context threaded through training and evaluation.
    pub fn ctx(&self) -> &ExecCtx {
        &self.ctx
    }

    /// The active scale preset.
    pub fn scale(&self) -> &Scale {
        &self.scale
    }

    /// The results directory (cache + CSV output).
    pub fn results_dir(&self) -> &Path {
        &self.dir
    }

    /// The generated dataset.
    pub fn data(&self) -> &SynthImageNet {
        &self.data
    }

    fn path(&self, stem: &str, ext: &str) -> PathBuf {
        self.dir.join(format!("{stem}_{}.{ext}", self.scale.name))
    }

    /// Opens the crash-safe journal for the named sweep, clearing it
    /// unless this suite was built [`Experiments::with_resume`].
    ///
    /// # Panics
    ///
    /// Panics (with the journal's own remediation message) when a resume
    /// would read a corrupt journal — silently recomputing, or worse
    /// silently dropping points, is exactly what the CRC is there to
    /// prevent.
    fn sweep(&self, name: &str) -> Sweep {
        let path = self.path(&format!("{name}_journal"), "jsonl");
        Sweep::new(name, &path, self.resume, self.ctx.metrics().clone())
            .unwrap_or_else(|e| panic!("sweep {name}: {e}"))
    }

    /// The epoch-checkpoint file a (possibly killed) training run for
    /// `key` persists its [`crate::TrainState`] into. Cleared here when
    /// resume is off, so a fresh run never silently continues a stale
    /// trajectory.
    fn train_state_path(&self, key: &str) -> PathBuf {
        let path = self.path(&format!("{key}.trainstate"), "json");
        if !self.resume {
            let _ = std::fs::remove_file(&path);
        }
        path
    }

    /// Loads the cached checkpoint + metadata for `key`, if both are on
    /// disk and parse.
    fn load_cached(&self, key: &str) -> Option<(Checkpoint, Stat)> {
        let ckpt = Checkpoint::load_json(self.path(&format!("{key}.ckpt"), "json")).ok()?;
        let meta_text = std::fs::read_to_string(self.path(&format!("{key}.meta"), "json")).ok()?;
        let meta: TrainedMeta = serde_json::from_str(&meta_text).ok()?;
        Some((ckpt, meta.accuracy))
    }

    /// One trained network of the paper's protocol, cached under `key`.
    /// Unless [`Experiments::load_cached`] finds it, the suite's model is
    /// built for `hw`, loaded from `init`, frozen per `freeze`, trained
    /// (crash-resumably; `decay` as in [`crate::train::train`]) and
    /// reported over `eval_passes` validation passes — stochastic exactly
    /// when `hw` injects AMS error. The results persist atomically: a
    /// kill during the save leaves either the old artifacts or the new,
    /// never torn files.
    #[allow(clippy::too_many_arguments)]
    fn trained(
        &self,
        key: &str,
        label: &str,
        hw: HardwareConfig,
        init: Option<&Checkpoint>,
        freeze: Option<FreezePolicy>,
        epochs: usize,
        lr: f32,
        decay: &[usize],
        train_seed: u64,
        eval_seed: u64,
    ) -> (Checkpoint, Stat) {
        if let Some(hit) = self.load_cached(key) {
            return hit;
        }
        let state_path = self.train_state_path(key);
        eprintln!("[{}] {label} ...", self.scale.name);
        let mut net = self.model.build(&hw);
        if let Some(ckpt) = init {
            ckpt.load_into(&mut *net).expect("architectures match");
        }
        if let Some(policy) = freeze {
            net.apply_freeze(policy);
        }
        let (data, batch) = (&self.data, self.scale.batch);
        let out = train(
            &self.ctx,
            &mut *net,
            &data.train,
            &data.val,
            epochs,
            lr,
            batch,
            train_seed,
            decay,
            Some(&state_path),
        );
        let accuracy = eval_passes(
            &self.ctx,
            &mut *net,
            &data.val,
            self.scale.eval_passes,
            batch,
            hw.vmac.is_some(),
            eval_seed,
        );
        let meta = TrainedMeta {
            accuracy,
            best_epoch: out.best_epoch,
        };
        let _ = out
            .best_checkpoint
            .save_json(self.path(&format!("{key}.ckpt"), "json"));
        if let Ok(text) = serde_json::to_string(&meta) {
            let _ = ams_tensor::obs::fsio::atomic_write(
                self.path(&format!("{key}.meta"), "json"),
                text.as_bytes(),
            );
        }
        (out.best_checkpoint, accuracy)
    }

    /// AMS hardware (injection in training and evaluation) at `enob` for
    /// an already-schemed `quant`, realized by the suite's error model.
    fn ams_hw(&self, quant: QuantConfig, enob: f64) -> HardwareConfig {
        let vmac = Vmac::new(quant.bw, quant.bx, 8, enob);
        HardwareConfig::ams(quant, vmac).with_error_model(self.error_model)
    }

    /// The FP32 baseline: trained from scratch with step decay, reported
    /// over `eval_passes` subsampled validation passes. Cached per
    /// topology — at 32 bits every quantizer scheme is a passthrough, so
    /// scenarios that differ only in quantizer or error model share it.
    pub fn fp32_baseline(&self) -> (Checkpoint, Stat) {
        let (epochs, seed) = (self.scale.fp32_epochs, self.scale.seed);
        self.trained(
            &format!("fp32{}", self.model_only_suffix()),
            "training FP32 baseline",
            HardwareConfig::fp32(),
            None,
            None,
            epochs,
            self.scale.fp32_lr,
            &[epochs * 3 / 5, epochs * 17 / 20],
            seed,
            seed ^ 0xEEEE,
        )
    }

    /// A quantized digital network (Table 1 rows 2–4): FP32 weights
    /// loaded, then retrained at the given bit-widths under the suite's
    /// quantizer scheme.
    pub fn quantized_baseline(&self, quant: QuantConfig) -> (Checkpoint, Stat) {
        let quant = self.schemed(quant);
        let key = format!(
            "quant_w{}a{}{}",
            quant.bw,
            quant.bx,
            self.model_quant_suffix()
        );
        let (fp32_ckpt, _) = self.fp32_baseline();
        self.trained(
            &key,
            &format!("retraining quantized baseline {quant}"),
            HardwareConfig::quantized(quant),
            Some(&fp32_ckpt),
            None,
            self.scale.retrain_epochs,
            self.scale.retrain_lr,
            &[],
            self.scale.seed ^ 0x1111,
            self.scale.seed ^ 0x2222,
        )
    }

    /// Accuracy with AMS error injected at evaluation only, starting from
    /// a quantized baseline's best checkpoint (the paper's "AMS error in
    /// eval only" series). Under [`Experiments::with_compensate`] the
    /// fitted per-layer affine correction is applied first.
    pub fn ams_eval_only(&self, quant: QuantConfig, enob: f64) -> Stat {
        let quant = self.schemed(quant);
        let (q_ckpt, _) = self.quantized_baseline(quant);
        let vmac = Vmac::new(quant.bw, quant.bx, 8, enob);
        let hw = HardwareConfig::ams_eval_only(quant, vmac).with_error_model(self.error_model);
        let mut net = self.model.build(&hw);
        q_ckpt.load_into(&mut *net).expect("architectures match");
        if self.compensate {
            let key = format!(
                "comp_w{}a{}_e{}{}",
                quant.bw,
                quant.bx,
                format_enob(enob),
                self.scenario_suffix()
            );
            let layers =
                self.compensation_for(&key, &q_ckpt, quant, vmac, self.error_model, DRIFT_T0);
            net.set_compensation(Some(&layers));
        }
        eval_passes(
            &self.ctx,
            &mut *net,
            &self.data.val,
            self.scale.eval_passes,
            self.scale.batch,
            true,
            self.scale.seed ^ (enob * 1000.0) as u64,
        )
    }

    /// Fits CorrectNet-style per-layer affine compensation: probes the
    /// per-layer output statistics of a clean twin (ideal error model)
    /// and a noisy twin (the given error model at inference time
    /// `t_infer`) over the validation set, then solves
    /// `a = σ_clean/σ_noisy`, `b = μ_clean − a·μ_noisy` per layer so the
    /// corrected outputs match the clean twin's first two moments.
    fn fit_compensation(
        &self,
        ckpt: &Checkpoint,
        quant: QuantConfig,
        vmac: Vmac,
        error_model: ErrorModelConfig,
        t_infer: f64,
    ) -> Vec<(f32, f32)> {
        let probe = |em: ErrorModelConfig, t: f64| -> Vec<(f64, f64)> {
            let hw = HardwareConfig::ams_eval_only(quant, vmac).with_error_model(em);
            let mut net = self.model.build(&hw);
            ckpt.load_into(&mut *net).expect("architectures match");
            net.set_inference_time(t);
            net.set_probes(true);
            let _ =
                crate::train::eval_accuracy(&self.ctx, &mut *net, &self.data.val, self.scale.batch);
            net.probe_stats()
        };
        let clean = probe(ErrorModelConfig::Ideal, DRIFT_T0);
        let noisy = probe(error_model, t_infer);
        clean
            .iter()
            .zip(&noisy)
            .map(|(&(mean_c, var_c), &(mean_n, var_n))| {
                let a = if var_n > 0.0 {
                    (var_c / var_n).sqrt()
                } else {
                    1.0
                };
                let b = mean_c - a * mean_n;
                (a as f32, b as f32)
            })
            .collect()
    }

    /// Loads (under `--resume`) or fits the compensation for the given
    /// checkpoint/error-model/time, persisting the fit next to the other
    /// cached artifacts. A resumed run refuses a state file fitted for a
    /// different configuration ([`CompensationState::load_matching`] —
    /// the [`crate::TrainState`] pattern); a fresh run clears it.
    fn compensation_for(
        &self,
        key: &str,
        ckpt: &Checkpoint,
        quant: QuantConfig,
        vmac: Vmac,
        error_model: ErrorModelConfig,
        t_infer: f64,
    ) -> Vec<(f32, f32)> {
        let path = self.path(&format!("{key}.compstate"), "json");
        if !self.resume {
            let _ = std::fs::remove_file(&path);
        } else if let Some(layers) = CompensationState::load_matching(
            &path,
            self.model.kind(),
            quant.scheme,
            error_model,
            t_infer,
        ) {
            return layers;
        }
        let layers = self.fit_compensation(ckpt, quant, vmac, error_model, t_infer);
        CompensationState {
            model_kind: self.model.kind(),
            quant: quant.scheme,
            error_model,
            t_infer,
            layers: layers.clone(),
        }
        .save(&path);
        layers
    }

    /// Accuracy after retraining with AMS error in the loop (from the
    /// FP32 checkpoint, quantization + injection active, last layer
    /// excluded during training per §2).
    pub fn ams_retrained(&self, quant: QuantConfig, enob: f64) -> (Checkpoint, Stat) {
        let quant = self.schemed(quant);
        let key = format!(
            "ams_w{}a{}_e{}{}",
            quant.bw,
            quant.bx,
            format_enob(enob),
            self.scenario_suffix()
        );
        let (fp32_ckpt, _) = self.fp32_baseline();
        self.trained(
            &key,
            &format!("retraining with AMS error at ENOB {enob}"),
            self.ams_hw(quant, enob),
            Some(&fp32_ckpt),
            None,
            self.scale.retrain_epochs,
            self.scale.retrain_lr,
            &[],
            self.scale.seed ^ 0x3333,
            self.scale.seed ^ 0x4444 ^ (enob * 1000.0) as u64,
        )
    }

    // ------------------------------------------------------------------
    // Table 1
    // ------------------------------------------------------------------

    /// Table 1: top-1 accuracy for the FP32 and quantized baselines.
    ///
    /// Each row is one journaled sweep point: a killed run resumes past
    /// its completed rows, and a row whose training keeps failing is
    /// quarantined while the rest of the table still reports.
    pub fn table1(&self) -> Table1Result {
        let _t = self.ctx.metrics().scope(|| "experiment.table1".to_string());
        let sweep = self.scenario_sweep("table1");
        // The first four rows mirror the paper; the extended rows
        // calibrate where degradation bites on our small substrate (like
        // the small networks/datasets the paper's introduction cites,
        // it tolerates 4-bit precision after DoReFa retraining).
        let specs: [(&str, Option<QuantConfig>); 7] = [
            ("FP32", None),
            ("BW = 8, BX = 8", Some(QuantConfig::w8a8())),
            ("BW = 6, BX = 6", Some(QuantConfig::w6a6())),
            ("BW = 6, BX = 4", Some(QuantConfig::w6a4())),
            ("BW = 4, BX = 4 (ext)", Some(QuantConfig::w4a4())),
            ("BW = 3, BX = 3 (ext)", Some(QuantConfig::w3a3())),
            ("BW = 2, BX = 2 (ext)", Some(QuantConfig::w2a2())),
        ];
        let rows = specs
            .iter()
            .filter_map(|&(label, quant)| {
                let point = match quant {
                    None => "fp32".to_string(),
                    Some(q) => format!("w{}a{}", q.bw, q.bx),
                };
                sweep.run_point(point, || Table1Row {
                    label: label.to_string(),
                    accuracy: match quant {
                        None => self.fp32_baseline().1,
                        Some(q) => self.quantized_baseline(q).1,
                    },
                })
            })
            .collect();
        Table1Result { rows }
    }

    // ------------------------------------------------------------------
    // Figures 4 & 5
    // ------------------------------------------------------------------

    /// Fig. 4: top-1 accuracy loss vs ENOB (N_mult = 8) relative to the 8b
    /// quantized network, eval-only vs retrained-with-error.
    pub fn fig4(&self) -> Fig4Result {
        let _t = self.ctx.metrics().scope(|| "experiment.fig4".to_string());
        let quant = QuantConfig::w8a8();
        // Warm the shared checkpoints once so the concurrent sweep points
        // below only ever read them from the cache.
        let (_, baseline) = self.quantized_baseline(quant);
        let _ = self.fp32_baseline();
        let sweep = self.scenario_sweep("fig4");
        let rows = self
            .ctx
            .parallel_map(&self.scale.enob_grid, |&enob| {
                sweep.run_point(format!("enob{enob:.2}"), || {
                    let _t = self
                        .ctx
                        .metrics()
                        .scope(|| format!("sweep.fig4.enob{enob:.1}"));
                    let eval_only = self.ams_eval_only(quant, enob).loss_relative_to(baseline);
                    let retrained = self.ams_retrained(quant, enob).1.loss_relative_to(baseline);
                    let m = self.ctx.metrics();
                    m.observe("sweep.fig4.loss_eval_only", eval_only.mean);
                    m.observe("sweep.fig4.loss_retrained", retrained.mean);
                    m.inc("sweep.fig4.points");
                    Fig4Row {
                        enob,
                        eval_only,
                        retrained,
                    }
                })
            })
            .into_iter()
            .flatten()
            .collect();
        Fig4Result { baseline, rows }
    }

    /// Fig. 5: top-1 accuracy loss vs ENOB (N_mult = 8) relative to the 6b
    /// quantized network, eval-only.
    pub fn fig5(&self) -> Fig5Result {
        let _t = self.ctx.metrics().scope(|| "experiment.fig5".to_string());
        let quant = QuantConfig::w6a6();
        let (_, baseline) = self.quantized_baseline(quant);
        let sweep = self.scenario_sweep("fig5");
        let rows = self
            .ctx
            .parallel_map(&self.scale.enob_grid_6b, |&enob| {
                sweep.run_point(format!("enob{enob:.2}"), || {
                    let _t = self
                        .ctx
                        .metrics()
                        .scope(|| format!("sweep.fig5.enob{enob:.1}"));
                    let loss = self.ams_eval_only(quant, enob).loss_relative_to(baseline);
                    self.ctx
                        .metrics()
                        .observe("sweep.fig5.loss_eval_only", loss.mean);
                    self.ctx.metrics().inc("sweep.fig5.points");
                    (enob, loss)
                })
            })
            .into_iter()
            .flatten()
            .collect();
        Fig5Result { baseline, rows }
    }

    // ------------------------------------------------------------------
    // Table 2
    // ------------------------------------------------------------------

    /// Table 2: AMS retraining with selective freezing at the scale's
    /// fixed ENOB, losses relative to the 8b quantized network.
    pub fn table2(&self) -> Table2Result {
        let _t = self.ctx.metrics().scope(|| "experiment.table2".to_string());
        let quant = self.schemed(QuantConfig::w8a8());
        let (_, baseline) = self.quantized_baseline(quant);
        let (fp32_ckpt, _) = self.fp32_baseline();
        let enob = self.scale.table2_enob;
        // Every freezing variant retrains independently from the shared
        // FP32 checkpoint warmed above — run them concurrently. The spec
        // decides which Table-2 policies are meaningful for the topology.
        let sweep = self.scenario_sweep("table2");
        let rows = self
            .ctx
            .parallel_map(self.model.freeze_policies(), |&policy| {
                let point = format!("{policy}").replace(' ', "_").to_lowercase();
                sweep.run_point(point, || {
                    let _t = self
                        .ctx
                        .metrics()
                        .scope(|| format!("sweep.table2.{policy}").replace(' ', "_"));
                    let key = format!("table2_{policy}").replace(' ', "_").to_lowercase()
                        + &self.scenario_suffix();
                    let (_, stat) = self.trained(
                        &key,
                        &format!("table2: retraining with frozen {policy}"),
                        self.ams_hw(quant, enob),
                        Some(&fp32_ckpt),
                        Some(policy),
                        self.scale.retrain_epochs,
                        self.scale.retrain_lr,
                        &[],
                        self.scale.seed ^ 0x5555,
                        self.scale.seed ^ 0x6666,
                    );
                    Table2Row {
                        policy,
                        loss: stat.loss_relative_to(baseline),
                    }
                })
            });
        let rows = rows.into_iter().flatten().collect();
        // Reference: no retraining at all (eval-only) bounds the damage
        // retraining is recovering from.
        let eval_only_loss = self.ams_eval_only(quant, enob).loss_relative_to(baseline);
        Table2Result {
            enob,
            rows,
            eval_only_loss,
        }
    }

    // ------------------------------------------------------------------
    // Figure 6
    // ------------------------------------------------------------------

    /// Fig. 6: mean activation at the output of every convolutional layer
    /// (the injection point) across the validation set, for the FP32
    /// network, the quantized network, and AMS networks at several noise
    /// levels.
    pub fn fig6(&self) -> Fig6Result {
        let _t = self.ctx.metrics().scope(|| "experiment.fig6".to_string());
        let quant = self.schemed(QuantConfig::w8a8());
        let mut variants: Vec<(String, HardwareConfig, Checkpoint, Option<f64>)> = Vec::new();
        let (fp_ckpt, _) = self.fp32_baseline();
        variants.push(("FP32".to_string(), HardwareConfig::fp32(), fp_ckpt, None));
        let (q_ckpt, _) = self.quantized_baseline(quant);
        variants.push((
            "Quantized".to_string(),
            HardwareConfig::quantized(quant),
            q_ckpt,
            None,
        ));
        for &enob in &self.scale.fig6_enobs {
            let (ckpt, _) = self.ams_retrained(quant, enob);
            variants.push((
                format!("AMS {}b", format_enob(enob)),
                self.ams_hw(quant, enob),
                ckpt,
                Some(enob),
            ));
        }

        let mut rows: Vec<Fig6Row> = Vec::new();
        let mut layer_names: Vec<String> = Vec::new();
        for (label, hw, ckpt, enob) in variants {
            let mut net = self.model.build(&hw);
            ckpt.load_into(&mut *net).expect("architectures match");
            net.set_probes(true);
            // One pass over the validation set accumulates the means.
            let _ =
                crate::train::eval_accuracy(&self.ctx, &mut *net, &self.data.val, self.scale.batch);
            let means = net.probe_means();
            if layer_names.is_empty() {
                layer_names = means.iter().map(|(n, _)| n.clone()).collect();
            }
            let sigmas: Vec<Option<f32>> = net
                .error_budget()
                .iter()
                .take(means.len())
                .map(|(_, _, s)| *s)
                .collect();
            rows.push(Fig6Row {
                label,
                enob,
                means: means.into_iter().map(|(_, m)| m).collect(),
                sigmas,
            });
        }

        // The paper's headline: in most conv layers the AMS-retrained
        // network pushes |mean| beyond the quantized network's.
        let quant_row = rows
            .iter()
            .find(|r| r.label == "Quantized")
            .expect("variant exists")
            .clone();
        let mut pushed = Vec::new();
        for row in rows.iter().filter(|r| r.enob.is_some()) {
            let count = row
                .means
                .iter()
                .zip(&quant_row.means)
                .filter(|(a, q)| a.abs() > q.abs())
                .count();
            pushed.push((row.label.clone(), count, row.means.len()));
        }
        // Per-layer noise trend: does |mean| grow as the injected sigma
        // grows (the paper's "the larger the noise, the greater the
        // push")? Compare each AMS variant ordered by increasing noise.
        let mut ams_rows: Vec<&Fig6Row> = rows.iter().filter(|r| r.enob.is_some()).collect();
        ams_rows.sort_by(|a, b| {
            b.enob.partial_cmp(&a.enob).expect("finite enob") // descending ENOB = ascending noise
        });
        let mut monotone_push_layers = Vec::new();
        let mut best_layer: Option<(String, f32)> = None;
        for (li, name) in layer_names.iter().enumerate() {
            let series: Vec<f32> = ams_rows.iter().map(|r| r.means[li].abs()).collect();
            let quant_abs = quant_row.means[li].abs();
            let monotone = series.windows(2).all(|w| w[1] >= w[0] - 1e-4)
                && series.last().copied().unwrap_or(0.0) > quant_abs;
            if monotone {
                monotone_push_layers.push(name.clone());
            }
            let push = series.last().copied().unwrap_or(0.0) - quant_abs;
            if best_layer.as_ref().is_none_or(|(_, p)| push > *p) {
                best_layer = Some((name.clone(), push));
            }
        }
        let representative_layer = best_layer.map(|(n, _)| n);
        Fig6Result {
            layer_names,
            rows,
            pushed_away_counts: pushed,
            monotone_push_layers,
            representative_layer,
        }
    }

    // ------------------------------------------------------------------
    // Figure 7
    // ------------------------------------------------------------------

    /// Fig. 7: the (synthetic) ADC survey against the Eq. 3 energy hull
    /// and the 187 dB Schreier-FOM line.
    pub fn fig7(&self) -> Fig7Result {
        let _t = self.ctx.metrics().scope(|| "experiment.fig7".to_string());
        let points = synthesize_survey(self.scale.survey_points, self.scale.seed);
        let hull = survey_lower_hull(&points, 15);
        let mut model_line = Vec::new();
        let mut fom_line = Vec::new();
        let mut enob = 4.0;
        while enob <= 19.0 {
            model_line.push((enob, adc_energy_pj(enob)));
            fom_line.push((enob, schreier_energy_pj(enob, SCHREIER_FOM_DB)));
            enob += 0.5;
        }
        let violations = points
            .iter()
            .filter(|p| p.energy_pj < adc_energy_pj(p.enob) * 0.999)
            .count();
        Fig7Result {
            points,
            hull,
            model_line,
            fom_line,
            violations,
        }
    }

    // ------------------------------------------------------------------
    // Figure 8
    // ------------------------------------------------------------------

    /// Fig. 8: the (ENOB, N_mult) design-space grid with accuracy-loss and
    /// energy/MAC level curves, derived from the measured Fig. 4
    /// retrained curve exactly as the paper maps its `N_mult = 8` results.
    pub fn fig8(&self) -> Fig8Result {
        let _t = self.ctx.metrics().scope(|| "experiment.fig8".to_string());
        let fig4 = self.fig4();
        let points: Vec<(f64, f64)> = fig4
            .rows
            .iter()
            .map(|r| (r.enob, r.retrained.mean.max(0.0)))
            .collect();
        let curve = AccuracyCurve::new(8, points).expect("fig4 grid has ≥2 distinct ENOBs");
        let grid = TradeoffGrid::evaluate(&curve, &self.scale.enob_grid, &self.scale.fig8_n_mults);
        let targets = [0.004, 0.01, 0.02];
        let min_energy: Vec<(f64, Option<f64>)> = targets
            .iter()
            .map(|&t| (t, grid.min_energy_for_loss(t).map(|p| p.mac_energy_fj)))
            .collect();
        let deviation = grid.level_curve_deviation();

        // Validation at the paper's own scale: feed the digitized
        // ResNet-50 Fig. 4 curve through the same machinery; the paper's
        // headline fJ/MAC numbers must come back out.
        let paper_curve = AccuracyCurve::paper_resnet50_reference();
        let paper_enobs: Vec<f64> = (0..21).map(|i| 9.0 + 0.25 * i as f64).collect();
        let paper_grid =
            TradeoffGrid::evaluate(&paper_curve, &paper_enobs, &self.scale.fig8_n_mults);
        let paper_min_energy: Vec<(f64, Option<f64>)> = targets
            .iter()
            .map(|&t| {
                (
                    t,
                    paper_grid.min_energy_for_loss(t).map(|p| p.mac_energy_fj),
                )
            })
            .collect();

        Fig8Result {
            curve,
            grid,
            min_energy,
            level_curve_deviation: deviation,
            paper_min_energy,
        }
    }

    // ------------------------------------------------------------------
    // Figure D (temporal drift & compensation)
    // ------------------------------------------------------------------

    /// Fig. D: top-1 accuracy vs simulated inference time per error
    /// model, with the Eq. 2 lumped model as the `t = 0` anchor and a
    /// CorrectNet-style compensated series per model (DESIGN.md §15).
    ///
    /// The grid pairs the suite's base error model against the drifting
    /// PCM model across the drift-time grid
    /// ([`Experiments::with_at_times`] or the scale preset's), each with
    /// and without compensation. Every point is journaled through the
    /// sweep engine, so `--threads N` and `--resume` work unchanged.
    pub fn figd(&self) -> FigDResult {
        let _t = self.ctx.metrics().scope(|| "experiment.figd".to_string());
        let quant = self.schemed(QuantConfig::w8a8());
        let enob = self.scale.table2_enob;
        let vmac = Vmac::new(quant.bw, quant.bx, 8, enob);
        // Shared checkpoint: hardware-aware retraining under this suite's
        // error model (for drift that means programming noise at t = t0).
        let (ckpt, _) = self.ams_retrained(QuantConfig::w8a8(), enob);
        let times: Vec<f64> = self
            .at_times
            .clone()
            .unwrap_or_else(|| self.scale.drift_times.clone());
        let drift_em = if self.error_model.kind() == ErrorModelKind::DriftingPcm {
            self.error_model
        } else {
            ErrorModelConfig::drifting_pcm(DRIFT_NU_DEFAULT)
        };
        let base_em = if self.error_model.kind() == ErrorModelKind::DriftingPcm {
            ErrorModelConfig::Lumped
        } else {
            self.error_model
        };
        let sweep = self.scenario_sweep("figd");
        let eval_point =
            |em: ErrorModelConfig, t: f64, comp_key: Option<&str>, seed_salt: u64| -> Stat {
                let hw = HardwareConfig::ams_eval_only(quant, vmac).with_error_model(em);
                let mut net = self.model.build(&hw);
                ckpt.load_into(&mut *net).expect("architectures match");
                net.set_inference_time(t);
                if let Some(key) = comp_key {
                    let layers = self.compensation_for(key, &ckpt, quant, vmac, em, t);
                    net.set_compensation(Some(&layers));
                }
                eval_passes(
                    &self.ctx,
                    &mut *net,
                    &self.data.val,
                    self.scale.eval_passes,
                    self.scale.batch,
                    true,
                    self.scale.seed ^ seed_salt,
                )
            };
        // The Eq. 2 anchor: the time-invariant lumped Gaussian, reported
        // at t = 0 ("as programmed").
        let baseline_row = sweep.run_point("lumped-t0".to_string(), || FigDRow {
            error_model: ErrorModelKind::Lumped.to_string(),
            t_infer: 0.0,
            compensated: false,
            accuracy: eval_point(
                ErrorModelConfig::Lumped,
                DRIFT_T0,
                None,
                key_seed("lumped-t0"),
            ),
        });
        let mut grid: Vec<(ErrorModelConfig, f64, bool)> = Vec::new();
        for &em in &[base_em, drift_em] {
            for &t in &times {
                for comp in [false, true] {
                    grid.push((em, t, comp));
                }
            }
        }
        let grid_rows: Vec<FigDRow> = self
            .ctx
            .parallel_map(&grid, |&(em, t, comp)| {
                let point = format!(
                    "{}-t{}{}",
                    em.kind(),
                    format_time(t),
                    if comp { "-comp" } else { "" }
                );
                sweep.run_point(point.clone(), || {
                    let _t = self.ctx.metrics().scope(|| format!("sweep.figd.{point}"));
                    let comp_key = format!("figd_{point}{}", self.scenario_suffix());
                    let accuracy =
                        eval_point(em, t, comp.then_some(comp_key.as_str()), key_seed(&point));
                    self.ctx.metrics().observe("sweep.figd.acc", accuracy.mean);
                    self.ctx.metrics().inc("sweep.figd.points");
                    FigDRow {
                        error_model: em.kind().to_string(),
                        t_infer: t,
                        compensated: comp,
                        accuracy,
                    }
                })
            })
            .into_iter()
            .flatten()
            .collect();
        let mut rows = Vec::with_capacity(grid_rows.len() + 1);
        rows.extend(baseline_row);
        rows.extend(grid_rows);
        let baseline = rows.iter().find(|r| r.t_infer == 0.0).map(|r| r.accuracy);
        FigDResult { baseline, rows }
    }

    // ------------------------------------------------------------------
    // Section 4 ablations
    // ------------------------------------------------------------------

    /// §4 ablations: per-VMAC simulation vs the lumped model, ΔΣ error
    /// recycling, reference scaling, multiplication partitioning, and the
    /// last-layer training-injection rule.
    pub fn ablations(&self) -> AblationReport {
        let _t = self
            .ctx
            .metrics()
            .scope(|| "experiment.ablations".to_string());
        // (a) Lumped Gaussian vs actual chunked quantization.
        let mut lumped_vs_sim = Vec::new();
        for &(enob, n_tot) in &[(7.0f64, 128usize), (8.0, 256), (9.0, 512)] {
            let vmac = Vmac::new(8, 8, 8, enob);
            let sim = VmacSimulator::new(vmac, AdcBehavior::Quantizing);
            let empirical = sim.empirical_rms_error(n_tot, 200, self.scale.seed);
            let model = vmac.total_error_sigma(n_tot);
            lumped_vs_sim.push((enob, n_tot, model, empirical));
        }

        // (b) ΔΣ error recycling.
        let vmac = Vmac::new(8, 8, 8, 8.0);
        let plain = VmacSimulator::new(vmac, AdcBehavior::Quantizing).empirical_rms_error(
            512,
            200,
            self.scale.seed,
        );
        let ds = VmacSimulator::new(
            vmac,
            AdcBehavior::DeltaSigma {
                final_extra_bits: 2.0,
            },
        )
        .empirical_rms_error(512, 200, self.scale.seed);

        // (c) Reference scaling sweep — independent simulations, run
        // concurrently.
        let refscale = self
            .ctx
            .parallel_map(&[1.0f64, 0.5, 0.25, 0.1, 0.05], |&alpha| {
                let sim = VmacSimulator::new(vmac, AdcBehavior::RefScaled { alpha });
                (
                    alpha,
                    sim.empirical_rms_error(256, 200, self.scale.seed),
                    sim.clip_fraction(256, 50, self.scale.seed),
                )
            });

        // (d) Multiplication partitioning (9-bit operands split cleanly).
        let base = Vmac::new(9, 9, 8, 14.0);
        let mut partition = Vec::new();
        for &(nw, nx, slice_enob) in &[
            (1u32, 1u32, 14.0f64),
            (2, 2, 12.0),
            (2, 2, 10.0),
            (4, 4, 8.0),
        ] {
            let p = PartitionedVmac::new(base, nw, nx, slice_enob).expect("clean splits");
            partition.push((
                nw,
                nx,
                slice_enob,
                p.equivalent_enob(1024),
                p.energy_per_mac_fj(),
                p.saves_energy_vs(14.0),
            ));
        }

        // (e) Last-layer training injection (the paper's §2 workaround):
        // retraining with last-layer injection enabled should hurt.
        let quant = self.schemed(QuantConfig::w8a8());
        let enob = self.scale.table2_enob;
        let (fp32_ckpt, _) = self.fp32_baseline();
        let (_, normal) = self.ams_retrained(quant, enob);
        let mut hw = self.ams_hw(quant, enob);
        hw.inject_last_layer_train = true;
        let (_, with_last) = self.trained(
            &format!("ablation_lastlayer{}", self.scenario_suffix()),
            "ablation: retraining WITH last-layer injection",
            hw,
            Some(&fp32_ckpt),
            None,
            self.scale.retrain_epochs,
            self.scale.retrain_lr,
            &[],
            self.scale.seed ^ 0x7777,
            self.scale.seed ^ 0x8888,
        );

        // (f) Network-level per-VMAC evaluation (paper §4's fine-grained
        // mode, eval only) against the lumped Gaussian, at a severe and a
        // moderate noise level.
        let (q_ckpt, _) = self.quantized_baseline(quant);
        let per_vmac_network = self.ctx.parallel_map(&[enob, enob + 1.5], |&level| {
            let vmac_net = Vmac::new(quant.bw, quant.bx, 8, level);
            let lumped_stat = self.ams_eval_only(quant, level);
            let hw_pv = HardwareConfig::ams_eval_only(quant, vmac_net).with_per_vmac_eval();
            let mut pv_net = self.model.build(&hw_pv);
            q_ckpt.load_into(&mut *pv_net).expect("architectures match");
            let acc = f64::from(crate::train::eval_accuracy(
                &self.ctx,
                &mut *pv_net,
                &self.data.val,
                self.scale.batch,
            ));
            (level, lumped_stat, acc)
        });

        // (g) Static device mismatch sweep on the quantized network —
        // every sigma evaluates an independent network, concurrently.
        let mismatch = self
            .ctx
            .parallel_map(&[0.0f64, 0.02, 0.05, 0.10, 0.20, 0.40], |&sigma| {
                let mut hw = HardwareConfig::quantized(quant);
                if sigma > 0.0 {
                    hw = hw.with_mismatch(MismatchModel::new(sigma, self.scale.seed));
                }
                let mut net = self.model.build(&hw);
                q_ckpt.load_into(&mut *net).expect("architectures match");
                let acc = f64::from(crate::train::eval_accuracy(
                    &self.ctx,
                    &mut *net,
                    &self.data.val,
                    self.scale.batch,
                ));
                (sigma, acc)
            });

        AblationReport {
            lumped_vs_sim,
            delta_sigma: (plain, ds),
            refscale,
            partition,
            last_layer: (normal, with_last),
            per_vmac_network,
            mismatch,
        }
    }
}

fn format_enob(enob: f64) -> String {
    if (enob - enob.round()).abs() < 1e-9 {
        format!("{}", enob.round() as i64)
    } else {
        format!("{enob:.1}")
    }
}

/// Formats a drift time for artifact keys and CSVs: integral seconds
/// print without a fraction (`3600`), everything else as-is (`0.5`).
fn format_time(t: f64) -> String {
    if (t - t.round()).abs() < 1e-9 {
        format!("{}", t.round() as i64)
    } else {
        format!("{t}")
    }
}

/// Deterministic per-point seed salt (FNV-1a over the point key), so
/// every figD grid point evaluates under a distinct, stable noise seed.
fn key_seed(key: &str) -> u64 {
    key.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

// ----------------------------------------------------------------------
// Result types (data + printing + CSV)
// ----------------------------------------------------------------------

/// One Table 1 row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Row {
    /// Quantization label as in the paper.
    pub label: String,
    /// Top-1 accuracy over the evaluation passes.
    pub accuracy: Stat,
}

/// Table 1: quantization baselines.
#[derive(Debug, Clone)]
pub struct Table1Result {
    /// Rows in the paper's order: FP32, 8/8, 6/6, 6/4.
    pub rows: Vec<Table1Row>,
}

impl Report for Table1Result {
    fn title(&self) -> String {
        "Table 1: top-1 accuracy per quantization (retrained with DoReFa, no AMS error)".to_string()
    }

    fn headers(&self) -> Vec<String> {
        ["Quantization", "Top-1 Accuracy", "Samp. Std. Dev."]
            .map(String::from)
            .to_vec()
    }

    fn rows(&self) -> Vec<Vec<String>> {
        self.rows
            .iter()
            .map(|r| {
                vec![
                    r.label.clone(),
                    format!("{:.4}", r.accuracy.mean),
                    format!("{:.2e}", r.accuracy.std),
                ]
            })
            .collect()
    }

    fn csv_stem(&self) -> &'static str {
        "table1"
    }

    fn csv_headers(&self) -> Vec<String> {
        ["quantization", "top1_accuracy", "sample_std"]
            .map(String::from)
            .to_vec()
    }
}

/// One Fig. 4 ENOB point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig4Row {
    /// ENOB of the VMAC conversion.
    pub enob: f64,
    /// Loss (re: 8b quantized) with AMS error at evaluation only.
    pub eval_only: Stat,
    /// Loss (re: 8b quantized) after retraining with AMS error.
    pub retrained: Stat,
}

/// Fig. 4: loss vs ENOB at N_mult = 8, both series.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    /// The 8b quantized baseline accuracy both series are relative to.
    pub baseline: Stat,
    /// Points, ascending in ENOB.
    pub rows: Vec<Fig4Row>,
}

impl Report for Fig4Result {
    fn title(&self) -> String {
        format!(
            "Figure 4: top-1 accuracy loss vs ENOB (Nmult = 8) re: 8b quantized (baseline {:.4})",
            self.baseline.mean
        )
    }

    fn headers(&self) -> Vec<String> {
        ["ENOB", "Loss (eval only)", "±", "Loss (retrained)", "±"]
            .map(String::from)
            .to_vec()
    }

    fn rows(&self) -> Vec<Vec<String>> {
        self.rows
            .iter()
            .map(|r| {
                vec![
                    format!("{:.1}", r.enob),
                    format!("{:+.4}", r.eval_only.mean),
                    format!("{:.2e}", r.eval_only.std),
                    format!("{:+.4}", r.retrained.mean),
                    format!("{:.2e}", r.retrained.std),
                ]
            })
            .collect()
    }

    fn csv_stem(&self) -> &'static str {
        "fig4"
    }

    fn csv_headers(&self) -> Vec<String> {
        [
            "enob",
            "loss_eval_only",
            "std_eval_only",
            "loss_retrained",
            "std_retrained",
        ]
        .map(String::from)
        .to_vec()
    }
}

/// Fig. 5: loss vs ENOB re: the 6b quantized network, eval-only.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// The 6b quantized baseline accuracy.
    pub baseline: Stat,
    /// `(enob, loss)` points.
    pub rows: Vec<(f64, Stat)>,
}

impl Report for Fig5Result {
    fn title(&self) -> String {
        format!(
            "Figure 5: top-1 accuracy loss vs ENOB (Nmult = 8) re: 6b quantized (baseline {:.4}), eval only",
            self.baseline.mean
        )
    }

    fn headers(&self) -> Vec<String> {
        ["ENOB", "Loss (eval only)", "±"].map(String::from).to_vec()
    }

    fn rows(&self) -> Vec<Vec<String>> {
        self.rows
            .iter()
            .map(|(e, s)| {
                vec![
                    format!("{e:.1}"),
                    format!("{:+.4}", s.mean),
                    format!("{:.2e}", s.std),
                ]
            })
            .collect()
    }

    fn csv_stem(&self) -> &'static str {
        "fig5"
    }

    fn csv_headers(&self) -> Vec<String> {
        ["enob", "loss_eval_only", "std"].map(String::from).to_vec()
    }
}

/// One Table 2 row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Row {
    /// The freezing policy applied during retraining.
    pub policy: FreezePolicy,
    /// Loss relative to the 8b quantized baseline.
    pub loss: Stat,
}

/// Table 2: selective freezing during AMS retraining.
#[derive(Debug, Clone)]
pub struct Table2Result {
    /// The fixed ENOB of the study.
    pub enob: f64,
    /// Rows in the paper's order (plus the BN-only-training probe).
    pub rows: Vec<Table2Row>,
    /// Loss with no retraining at all (the recovery headroom).
    pub eval_only_loss: Stat,
}

impl Report for Table2Result {
    fn title(&self) -> String {
        format!(
            "Table 2: selective freezing during AMS retraining (ENOB = {:.1}, Nmult = 8)",
            self.enob
        )
    }

    fn headers(&self) -> Vec<String> {
        [
            "Frozen Layers",
            "Top-1 Accuracy Loss re: 8b",
            "Samp. Std. Dev.",
        ]
        .map(String::from)
        .to_vec()
    }

    fn rows(&self) -> Vec<Vec<String>> {
        self.rows
            .iter()
            .map(|r| {
                vec![
                    r.policy.to_string(),
                    format!("{:+.4}", r.loss.mean),
                    format!("{:.2e}", r.loss.std),
                ]
            })
            .collect()
    }

    fn csv_stem(&self) -> &'static str {
        "table2"
    }

    fn csv_headers(&self) -> Vec<String> {
        ["frozen", "loss_re_8b", "sample_std"]
            .map(String::from)
            .to_vec()
    }

    fn print_extra(&self) {
        println!(
            "reference (no retraining, eval-only): loss {:+.4} ± {:.1e}",
            self.eval_only_loss.mean, self.eval_only_loss.std
        );
    }
}

/// One network variant of Fig. 6.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Variant label ("FP32", "Quantized", "AMS 7b", ...).
    pub label: String,
    /// The AMS ENOB, if this is an AMS variant.
    pub enob: Option<f64>,
    /// Mean activation at every conv output, in forward order.
    pub means: Vec<f32>,
    /// The injected error σ per layer (None for noise-free variants).
    pub sigmas: Vec<Option<f32>>,
}

/// Fig. 6: activation means at conv outputs across the validation set.
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// Conv layer names, forward order.
    pub layer_names: Vec<String>,
    /// One row per network variant.
    pub rows: Vec<Fig6Row>,
    /// Per AMS variant: `(label, layers where |mean| exceeds the
    /// quantized network's, total layers)` — the paper's "43 of the 53
    /// convolutional layers" statistic.
    pub pushed_away_counts: Vec<(String, usize, usize)>,
    /// Layers whose |mean| grows monotonically with the injected noise and
    /// ends above the quantized network's — the paper's "the larger the
    /// noise, the greater the push".
    pub monotone_push_layers: Vec<String>,
    /// The layer with the largest push at the highest noise level — the
    /// "representative convolutional layer" the paper's Fig. 6 plots.
    pub representative_layer: Option<String>,
}

impl Report for Fig6Result {
    fn title(&self) -> String {
        "Figure 6: mean conv-output activation across the validation set".to_string()
    }

    fn headers(&self) -> Vec<String> {
        std::iter::once("layer".to_string())
            .chain(self.rows.iter().map(|r| r.label.clone()))
            .collect()
    }

    fn rows(&self) -> Vec<Vec<String>> {
        self.layer_names
            .iter()
            .enumerate()
            .map(|(li, name)| {
                std::iter::once(name.clone())
                    .chain(
                        self.rows
                            .iter()
                            .map(|variant| format!("{:+.4}", variant.means[li])),
                    )
                    .collect()
            })
            .collect()
    }

    fn csv_stem(&self) -> &'static str {
        "fig6"
    }

    fn print_extra(&self) {
        for (label, n, total) in &self.pushed_away_counts {
            println!("{label}: activation means pushed away from zero (|mean| > quantized) in {n} of {total} conv layers");
        }
        println!(
            "layers with monotone push (|mean| grows with noise): {}",
            if self.monotone_push_layers.is_empty() {
                "none".to_string()
            } else {
                self.monotone_push_layers.join(", ")
            }
        );
        if let Some(layer) = &self.representative_layer {
            println!("representative layer (largest push at highest noise): {layer}");
        }
    }
}

/// Fig. 7: the synthetic ADC survey against the paper's energy model.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// Survey points.
    pub points: Vec<AdcSurveyPoint>,
    /// Binned lower hull `(enob, min pJ)`.
    pub hull: Vec<(f64, f64)>,
    /// The Eq. 3 model line samples `(enob, pJ)`.
    pub model_line: Vec<(f64, f64)>,
    /// The 187 dB Schreier-FOM line samples `(enob, pJ)`.
    pub fom_line: Vec<(f64, f64)>,
    /// Number of survey points below the model bound (must be 0).
    pub violations: usize,
}

impl Report for Fig7Result {
    fn title(&self) -> String {
        format!(
            "Figure 7: ADC survey lower hull vs Eq. 3 model ({} synthetic points, {} below bound)",
            self.points.len(),
            self.violations
        )
    }

    fn headers(&self) -> Vec<String> {
        ["ENOB (bin)", "Survey min P/fsnyq [pJ]", "Model bound [pJ]"]
            .map(String::from)
            .to_vec()
    }

    fn rows(&self) -> Vec<Vec<String>> {
        self.hull
            .iter()
            .map(|(e, p)| {
                vec![
                    format!("{e:.2}"),
                    format!("{p:.4}"),
                    format!("{:.4}", adc_energy_pj(*e)),
                ]
            })
            .collect()
    }

    fn csv_stem(&self) -> &'static str {
        "fig7_hull"
    }

    fn csv_headers(&self) -> Vec<String> {
        ["enob_bin", "survey_min_pj", "model_pj"]
            .map(String::from)
            .to_vec()
    }

    fn write_extra_csvs(&self, dir: &Path, scale_name: &str) {
        let point_rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                vec![
                    p.year.to_string(),
                    p.venue.to_string(),
                    format!("{:.3}", p.enob),
                    format!("{:.5}", p.energy_pj),
                    format!("{:.1}", p.fom_db()),
                ]
            })
            .collect();
        let _ = write_csv(
            dir.join(format!("fig7_points_{scale_name}.csv")),
            &["year", "venue", "enob", "energy_pj", "fom_db"],
            &point_rows,
        );
    }
}

/// Fig. 8: the design-space grid plus headline minimum-energy numbers.
#[derive(Debug, Clone)]
pub struct Fig8Result {
    /// The measured accuracy curve at the reference N_mult = 8.
    pub curve: AccuracyCurve,
    /// The evaluated (ENOB × N_mult) grid.
    pub grid: TradeoffGrid,
    /// `(loss target, min fJ/MAC among qualifying cells)` — the paper's
    /// "< 0.4 % requires ≥ ~313 fJ/MAC" numbers on our substrate.
    pub min_energy: Vec<(f64, Option<f64>)>,
    /// Maximum relative energy deviation along equal-loss trades in the
    /// thermal region (the parallel-level-curve claim; ≈ 0).
    pub level_curve_deviation: f64,
    /// The same loss targets priced on the paper's digitized ResNet-50
    /// curve — must recover the paper's ~313 / ~78 fJ headline numbers.
    pub paper_min_energy: Vec<(f64, Option<f64>)>,
}

impl Report for Fig8Result {
    fn title(&self) -> String {
        "Figure 8: accuracy loss / energy per MAC over (ENOB, Nmult)".to_string()
    }

    fn headers(&self) -> Vec<String> {
        std::iter::once("ENOB".to_string())
            .chain(self.grid.n_mults().iter().map(|n| format!("Nmult={n}")))
            .collect()
    }

    fn rows(&self) -> Vec<Vec<String>> {
        let mut rows = Vec::new();
        for (ei, &enob) in self.grid.enobs().iter().enumerate() {
            let mut row = vec![format!("{enob:.1}")];
            for ni in 0..self.grid.n_mults().len() {
                let c = self.grid.cell(ei, ni);
                row.push(format!("{:.2}%/{:.0}fJ", c.loss * 100.0, c.mac_energy_fj));
            }
            rows.push(row);
        }
        rows
    }

    fn csv_stem(&self) -> &'static str {
        "fig8"
    }

    fn csv_headers(&self) -> Vec<String> {
        ["enob", "n_mult", "loss", "mac_energy_fj"]
            .map(String::from)
            .to_vec()
    }

    fn csv_rows(&self) -> Vec<Vec<String>> {
        self.grid
            .cells()
            .iter()
            .map(|c| {
                vec![
                    format!("{:.2}", c.enob),
                    c.n_mult.to_string(),
                    format!("{:.6}", c.loss),
                    format!("{:.3}", c.mac_energy_fj),
                ]
            })
            .collect()
    }

    fn print_extra(&self) {
        for (target, energy) in &self.min_energy {
            match energy {
                Some(fj) => println!(
                    "< {:.1}% accuracy loss requires at least ~{fj:.0} fJ/MAC",
                    target * 100.0
                ),
                None => println!(
                    "< {:.1}% accuracy loss: no design point on this grid qualifies",
                    target * 100.0
                ),
            }
        }
        println!(
            "level curves parallel in thermal region: max relative energy deviation {:.2e}",
            self.level_curve_deviation
        );
        println!(
            "\nvalidation with the paper's digitized ResNet-50 curve through the same machinery:"
        );
        for (target, energy) in &self.paper_min_energy {
            match energy {
                Some(fj) => println!(
                    "  < {:.1}% loss requires at least ~{fj:.0} fJ/MAC (paper: {})",
                    target * 100.0,
                    match *target {
                        t if (t - 0.004).abs() < 1e-9 => "~313 fJ/MAC",
                        t if (t - 0.01).abs() < 1e-9 => "~78 fJ/MAC",
                        _ => "n/a",
                    }
                ),
                None => println!("  < {:.1}% loss: no qualifying design", target * 100.0),
            }
        }
    }
}

/// One figD point: an error model evaluated at a simulated inference
/// time, with or without per-layer affine compensation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FigDRow {
    /// Error-model kind key (`lumped`, `drifting-pcm`, ...).
    pub error_model: String,
    /// Simulated inference time in seconds (0 = the Eq. 2 anchor).
    pub t_infer: f64,
    /// Whether the fitted compensation was applied.
    pub compensated: bool,
    /// Top-1 accuracy over the evaluation passes.
    pub accuracy: Stat,
}

/// Fig. D: accuracy vs inference time per error model, with and without
/// CorrectNet-style compensation.
#[derive(Debug, Clone)]
pub struct FigDResult {
    /// The Eq. 2 lumped anchor accuracy (the `t = 0` row), if that point
    /// ran (a quarantined anchor leaves the loss columns empty).
    pub baseline: Option<Stat>,
    /// All rows: the anchor first, then (error model × time ×
    /// compensation) in grid order.
    pub rows: Vec<FigDRow>,
}

impl Report for FigDResult {
    fn title(&self) -> String {
        match self.baseline {
            Some(b) => format!(
                "Figure D: top-1 accuracy vs inference time (Eq. 2 lumped anchor at t = 0: {:.4})",
                b.mean
            ),
            None => "Figure D: top-1 accuracy vs inference time (anchor quarantined)".to_string(),
        }
    }

    fn headers(&self) -> Vec<String> {
        [
            "Error model",
            "t [s]",
            "Compensated",
            "Top-1",
            "±",
            "Loss vs t0",
            "±",
        ]
        .map(String::from)
        .to_vec()
    }

    fn rows(&self) -> Vec<Vec<String>> {
        self.rows
            .iter()
            .map(|r| {
                let loss = self.baseline.map(|b| r.accuracy.loss_relative_to(b));
                vec![
                    r.error_model.clone(),
                    format_time(r.t_infer),
                    if r.compensated { "yes" } else { "no" }.to_string(),
                    format!("{:.4}", r.accuracy.mean),
                    format!("{:.2e}", r.accuracy.std),
                    loss.map(|l| format!("{:+.4}", l.mean)).unwrap_or_default(),
                    loss.map(|l| format!("{:.2e}", l.std)).unwrap_or_default(),
                ]
            })
            .collect()
    }

    fn csv_stem(&self) -> &'static str {
        "figd"
    }

    fn csv_headers(&self) -> Vec<String> {
        [
            "error_model",
            "t_infer",
            "compensated",
            "acc_mean",
            "acc_std",
            "loss_vs_t0_mean",
            "loss_vs_t0_std",
        ]
        .map(String::from)
        .to_vec()
    }
}

/// §4 ablation results.
#[derive(Debug, Clone)]
pub struct AblationReport {
    /// `(enob, n_tot, model σ, per-VMAC empirical RMS)` — lumped model vs
    /// chunked simulation.
    pub lumped_vs_sim: Vec<(f64, usize, f64, f64)>,
    /// `(plain RMS, ΔΣ RMS)` at ENOB 8, N_tot 512.
    pub delta_sigma: (f64, f64),
    /// `(alpha, RMS error, clip fraction)` for reference scaling.
    pub refscale: Vec<(f64, f64, f64)>,
    /// `(N_W, N_X, slice ENOB, equivalent unpartitioned ENOB, fJ/MAC,
    /// saves energy vs 14b)` for multiplication partitioning.
    pub partition: Vec<(u32, u32, f64, f64, f64, bool)>,
    /// `(normal retrain accuracy, with-last-layer-injection accuracy)`.
    pub last_layer: (Stat, Stat),
    /// Network-level fine-grained mode: `(ENOB, lumped-Gaussian accuracy
    /// stat, per-VMAC chunked-quantization accuracy)` at a severe and a
    /// moderate noise level.
    pub per_vmac_network: Vec<(f64, Stat, f64)>,
    /// `(device sigma, top-1 accuracy)` for the static-mismatch sweep on
    /// the quantized network.
    pub mismatch: Vec<(f64, f64)>,
}

impl Report for AblationReport {
    fn title(&self) -> String {
        "Ablation A: lumped Gaussian model (Eq. 2) vs per-VMAC quantizing simulation".to_string()
    }

    fn headers(&self) -> Vec<String> {
        ["ENOB", "N_tot", "Model sigma", "Empirical RMS", "Ratio"]
            .map(String::from)
            .to_vec()
    }

    fn rows(&self) -> Vec<Vec<String>> {
        self.lumped_vs_sim
            .iter()
            .map(|(e, n, m, s)| {
                vec![
                    format!("{e:.1}"),
                    n.to_string(),
                    format!("{m:.5}"),
                    format!("{s:.5}"),
                    format!("{:.3}", s / m),
                ]
            })
            .collect()
    }

    fn csv_stem(&self) -> &'static str {
        "ablations_lumped"
    }

    fn csv_headers(&self) -> Vec<String> {
        ["enob", "n_tot", "model_sigma", "empirical_rms"]
            .map(String::from)
            .to_vec()
    }

    fn csv_rows(&self) -> Vec<Vec<String>> {
        self.lumped_vs_sim
            .iter()
            .map(|(e, n, m, s)| vec![format!("{e}"), n.to_string(), m.to_string(), s.to_string()])
            .collect()
    }

    fn print_extra(&self) {
        println!(
            "\nAblation B: delta-sigma error recycling at ENOB 8, N_tot 512: plain RMS {:.5} -> recycled RMS {:.5} ({:.1}x reduction)",
            self.delta_sigma.0,
            self.delta_sigma.1,
            self.delta_sigma.0 / self.delta_sigma.1
        );

        let rows: Vec<Vec<String>> = self
            .refscale
            .iter()
            .map(|(a, rms, clip)| {
                vec![
                    format!("{a:.2}"),
                    format!("{rms:.5}"),
                    format!("{:.3}%", clip * 100.0),
                ]
            })
            .collect();
        print_table(
            "Ablation C: ADC reference scaling (alpha x full-scale)",
            &["alpha", "RMS error", "clip fraction"],
            &rows,
        );

        let rows: Vec<Vec<String>> = self
            .partition
            .iter()
            .map(|(nw, nx, se, eq, fj, saves)| {
                vec![
                    format!("{nw}x{nx}"),
                    format!("{se:.1}"),
                    format!("{eq:.2}"),
                    format!("{fj:.1}"),
                    saves.to_string(),
                ]
            })
            .collect();
        print_table(
            "Ablation D: multiplication partitioning (9b operands, Nmult = 8, vs unpartitioned 14b)",
            &["Split", "Slice ENOB", "Equivalent ENOB", "fJ/MAC", "Saves energy"],
            &rows,
        );

        println!(
            "\nAblation E: last-layer injection during training: normal {:.4} vs with-last-layer {:.4} (paper: enabling it prevents learning)",
            self.last_layer.0.mean, self.last_layer.1.mean
        );

        println!("\nAblation F: network-level error realization (lumped Gaussian vs per-VMAC chunked quantization):");
        for (level, lumped, pv) in &self.per_vmac_network {
            println!(
                "  ENOB {level:>4.1}: lumped {:.4} (±{:.1e}) vs per-VMAC {pv:.4}",
                lumped.mean, lumped.std
            );
        }

        let rows: Vec<Vec<String>> = self
            .mismatch
            .iter()
            .map(|(s, a)| vec![format!("{:.1}%", s * 100.0), format!("{a:.4}")])
            .collect();
        print_table(
            "Ablation G: static device mismatch on the quantized network",
            &["device sigma", "top-1 accuracy"],
            &rows,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_enob_drops_trailing_zeros() {
        assert_eq!(format_enob(8.0), "8");
        assert_eq!(format_enob(12.5), "12.5");
    }

    #[test]
    fn i8_kernel_gets_its_own_artifact_keys() {
        let dir = std::env::temp_dir().join("ams_exp_kernel_key_test");
        let exp = Experiments::new(Scale::test(), &dir);
        assert!(exp.is_default_scenario());
        assert_eq!(exp.scenario_suffix(), "");
        assert_eq!(exp.model_quant_suffix(), "");

        let i8 = Experiments::new(Scale::test(), &dir)
            .with_ctx(ExecCtx::serial().with_kernel(KernelDispatch::I8));
        // Eval outputs differ under the integer kernel, so nothing may
        // share a path with the f32 goldens except the fp32 baseline
        // (32-bit widths never take the i8 path).
        assert!(!i8.is_default_scenario());
        assert!(i8.scenario_key().ends_with("-i8"));
        assert!(i8.model_quant_suffix().ends_with("-i8"));
        assert_eq!(i8.model_only_suffix(), "");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn time_and_compensation_are_scenario_dimensions() {
        let dir = std::env::temp_dir().join("ams_exp_drift_key_test");
        let base = Experiments::new(Scale::test(), &dir);
        assert!(base.is_default_scenario());

        let timed = Experiments::new(Scale::test(), &dir).with_at_times(Some(vec![1.0, 3600.0]));
        assert!(!timed.is_default_scenario());
        assert!(timed.scenario_key().ends_with("-t1+3600"));

        let comp = Experiments::new(Scale::test(), &dir).with_compensate(true);
        assert!(!comp.is_default_scenario());
        assert!(comp.scenario_key().ends_with("-comp"));

        let both = Experiments::new(Scale::test(), &dir)
            .with_at_times(Some(vec![0.5]))
            .with_compensate(true);
        assert!(both.scenario_key().ends_with("-t0.5-comp"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn format_time_drops_integral_fractions() {
        assert_eq!(format_time(0.0), "0");
        assert_eq!(format_time(3600.0), "3600");
        assert_eq!(format_time(0.5), "0.5");
    }

    #[test]
    fn key_seed_is_stable_and_distinct() {
        assert_eq!(key_seed("lumped-t0"), key_seed("lumped-t0"));
        assert_ne!(key_seed("lumped-t1"), key_seed("drifting-pcm-t1"));
    }

    #[test]
    fn fig7_runs_without_training() {
        let dir = std::env::temp_dir().join("ams_exp_fig7_test");
        let exp = Experiments::new(Scale::test(), &dir);
        let f7 = exp.fig7();
        assert_eq!(f7.points.len(), Scale::test().survey_points);
        assert_eq!(
            f7.violations, 0,
            "synthetic survey must respect the Eq. 3 bound"
        );
        assert!(!f7.hull.is_empty());
        let _ = std::fs::remove_dir_all(dir);
    }
}
