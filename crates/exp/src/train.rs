//! The training and evaluation loops.

use std::path::Path;
use std::time::Instant;

use ams_data::{Batcher, Dataset};
use ams_models::{AmsModel, ErrorModelConfig, ModelKind};
use ams_nn::{accuracy, softmax_cross_entropy, Checkpoint, Mode, Sgd};
use ams_quant::QuantScheme;
use ams_tensor::{rng, ExecCtx};
use serde::{Deserialize, Serialize};

use crate::report::Stat;

/// Result of a training run with per-epoch validation: the best epoch's
/// snapshot and history.
///
/// The paper does not use learning-rate scheduling: "if the validation set
/// accuracy begins to decrease after some time, the training run is
/// stopped and the maximum validation accuracy is reported". This loop
/// mirrors that by snapshotting the best-validation epoch.
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    /// Snapshot of the model at its best validation epoch.
    pub best_checkpoint: Checkpoint,
    /// Single-pass validation accuracy of the best epoch.
    pub best_val_acc: f64,
    /// 1-based index of the best epoch.
    pub best_epoch: usize,
    /// `(train_loss, val_acc)` per epoch.
    pub history: Vec<(f64, f64)>,
}

/// Everything the training loop needs to continue **bit-identically**
/// from an epoch boundary after the process is killed (DESIGN.md §9):
/// the live model state, the optimizer's momentum buffers, the current
/// (post-decay) learning rate, the shuffle/augmentation RNG cursor, every
/// layer's AMS noise-stream cursor, and the best-epoch bookkeeping.
///
/// Gradients are *not* captured: [`Sgd::step`] zeroes them after every
/// update, so they are identically zero at each epoch boundary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainState {
    /// Epochs fully completed (resume continues at `epochs_done + 1`).
    pub epochs_done: usize,
    /// Current learning rate, with any step decays already applied.
    pub lr: f32,
    /// Live model parameters and buffers at the boundary.
    pub model: Checkpoint,
    /// Optimizer momentum buffers, keyed by parameter name.
    pub velocities: Checkpoint,
    /// Cursor of the shuffle/augmentation stream.
    pub shuffle_rng: rng::RngState,
    /// The error model the run was configured with. Resume refuses a
    /// state written under a different model: the noise cursors below
    /// would silently reposition the *wrong* error process.
    pub error_model: ErrorModelConfig,
    /// The quantizer scheme the run was configured with. Resume refuses a
    /// state written under a different quantizer: the parameters were
    /// trained against a different forward function (absent in states
    /// written before the quantizer seam; defaults to DoReFa).
    pub quant: QuantScheme,
    /// The topology the run was training. Resume refuses a state written
    /// for a different model before the checkpoint load can fail with a
    /// less actionable key-mismatch error (absent in states written
    /// before the model seam; defaults to ResNetMini).
    pub model_kind: ModelKind,
    /// Per-layer AMS noise-stream cursors, in the model's forward order.
    pub noise_states: Vec<rng::RngState>,
    /// Snapshot of the best-validation epoch so far.
    pub best_checkpoint: Checkpoint,
    /// Best single-pass validation accuracy so far.
    pub best_val_acc: f64,
    /// 1-based index of the best epoch so far (0 = none yet).
    pub best_epoch: usize,
    /// `(train_loss, val_acc)` per completed epoch.
    pub history: Vec<(f64, f64)>,
}

impl TrainState {
    /// Loads a state file written by a previous (killed) run.
    ///
    /// Returns `None` when the file is absent — a fresh run. A present
    /// but unreadable file is also treated as fresh, with a warning: the
    /// file is written atomically, so this only happens when the schema
    /// changed or the file was tampered with, and recomputing is always
    /// correct.
    pub fn load(path: &Path) -> Option<TrainState> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
            Err(e) => {
                eprintln!(
                    "[train] cannot read state {}: {e}; restarting",
                    path.display()
                );
                return None;
            }
        };
        match serde_json::from_str(&text) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!(
                    "[train] cannot parse state {}: {e}; restarting",
                    path.display()
                );
                None
            }
        }
    }

    fn save(&self, path: &Path, ctx: &ExecCtx) {
        let t0 = Instant::now();
        let json = serde_json::to_string(self).expect("train state serializes");
        if let Err(e) = ams_obs::fsio::atomic_write(path, json.as_bytes()) {
            // Durability is best-effort; training itself is unaffected.
            eprintln!("[train] cannot write state {}: {e}", path.display());
        }
        ctx.metrics()
            .observe("checkpoint.write_ms", t0.elapsed().as_secs_f64() * 1e3);
    }
}

/// Trains `net` for `epochs` epochs of SGD with momentum 0.9 (and weight
/// decay 5e-4 on decaying parameters), validating after each epoch and
/// snapshotting the best. Random horizontal flips augment each epoch's
/// training data.
///
/// The learning rate is multiplied by 0.2 at each (1-based) epoch listed
/// in `decay_at`. Only FP32 *pretraining* decays: the paper's retraining
/// runs use a constant learning rate ("learning rate scheduling is not
/// implemented here", §3), so they pass `&[]`.
///
/// With `state_path` set, a [`TrainState`] is written atomically after
/// every epoch and deleted on successful completion; if the file already
/// exists on entry (a previous run was killed), training resumes from it
/// and the finished run is **bit-identical** to an uninterrupted one —
/// same best checkpoint, same history, same RNG cursors. Frozen-parameter
/// flags are *not* persisted; callers that freeze layers (Table 2) apply
/// the policy to `net` before calling, exactly as on a fresh run.
///
/// # Panics
///
/// Panics if `epochs == 0`, either dataset is empty, or a resumed state
/// does not match `net`'s architecture.
#[allow(clippy::too_many_arguments)]
pub fn train(
    ctx: &ExecCtx,
    net: &mut dyn AmsModel,
    train: &Dataset,
    val: &Dataset,
    epochs: usize,
    lr: f32,
    batch: usize,
    seed: u64,
    decay_at: &[usize],
    state_path: Option<&Path>,
) -> TrainOutcome {
    assert!(epochs > 0, "train: zero epochs");
    assert!(!train.is_empty() && !val.is_empty(), "train: empty dataset");
    let mut opt = Sgd::with_momentum(lr, 0.9).weight_decay(5e-4);
    let mut shuffle_rng = rng::seeded(seed);
    let mut best = TrainOutcome {
        best_checkpoint: Checkpoint::new(),
        best_val_acc: f64::NEG_INFINITY,
        best_epoch: 0,
        history: Vec::with_capacity(epochs),
    };
    let mut start_epoch = 1usize;

    if let Some(state) = state_path.and_then(TrainState::load) {
        let configured = net.hardware().error_model;
        assert!(
            state.error_model == configured,
            "refusing to resume from {}: checkpoint was written with error model {:?}, \
             this run uses {:?} — delete the state file to restart from scratch",
            state_path.expect("load implies a path").display(),
            state.error_model,
            configured,
        );
        let configured_quant = net.hardware().quant.scheme;
        assert!(
            state.quant == configured_quant,
            "refusing to resume from {}: checkpoint was written with quantizer {}, \
             this run uses {} — delete the state file to restart from scratch",
            state_path.expect("load implies a path").display(),
            state.quant,
            configured_quant,
        );
        let configured_model = net.kind();
        assert!(
            state.model_kind == configured_model,
            "refusing to resume from {}: checkpoint was written for model {}, \
             this run trains {} — delete the state file to restart from scratch",
            state_path.expect("load implies a path").display(),
            state.model_kind,
            configured_model,
        );
        eprintln!(
            "[train] resuming at epoch {}/{epochs} from {}",
            state.epochs_done + 1,
            state_path.expect("load implies a path").display()
        );
        state
            .model
            .load_into(&mut *net)
            .expect("state matches architecture");
        state
            .velocities
            .load_velocities_into(&mut *net)
            .expect("state matches architecture");
        net.restore_noise_states(&state.noise_states);
        shuffle_rng = state.shuffle_rng.restore();
        opt.lr = state.lr;
        best.best_checkpoint = state.best_checkpoint;
        best.best_val_acc = state.best_val_acc;
        best.best_epoch = state.best_epoch;
        best.history = state.history;
        start_epoch = state.epochs_done + 1;
        ctx.metrics().inc("train.resumed");
        ctx.metrics()
            .add("train.epochs.skipped", state.epochs_done as u64);
    }

    for epoch in start_epoch..=epochs {
        let _epoch_t = ctx.metrics().scope(|| "train.epoch".to_string());
        if decay_at.contains(&epoch) {
            opt.lr *= 0.2;
        }
        let augmented = train.random_flip(&mut shuffle_rng);
        let mut loss_sum = 0.0f64;
        let mut batches = 0usize;
        for (images, labels) in Batcher::new(&augmented, batch, &mut shuffle_rng) {
            let logits = net.forward(ctx, &images, Mode::Train);
            let (loss, grad) = softmax_cross_entropy(&logits, &labels);
            net.backward(ctx, &grad);
            opt.step(&mut *net);
            loss_sum += f64::from(loss);
            batches += 1;
        }
        let val_acc = f64::from(eval_accuracy(ctx, &mut *net, val, batch));
        ctx.metrics()
            .observe("train.epoch_loss", loss_sum / batches as f64);
        ctx.metrics().observe("train.epoch_val_acc", val_acc);
        best.history.push((loss_sum / batches as f64, val_acc));
        if val_acc > best.best_val_acc {
            best.best_val_acc = val_acc;
            best.best_epoch = epoch;
            best.best_checkpoint = Checkpoint::from_layer(&mut *net);
        }
        if let Some(path) = state_path {
            if epoch < epochs {
                TrainState {
                    epochs_done: epoch,
                    lr: opt.lr,
                    model: Checkpoint::from_layer(&mut *net),
                    velocities: Checkpoint::velocities_from(&mut *net),
                    shuffle_rng: rng::RngState::capture(&shuffle_rng),
                    error_model: net.hardware().error_model,
                    quant: net.hardware().quant.scheme,
                    model_kind: net.kind(),
                    noise_states: net.noise_states(),
                    best_checkpoint: best.best_checkpoint.clone(),
                    best_val_acc: best.best_val_acc,
                    best_epoch: best.best_epoch,
                    history: best.history.clone(),
                }
                .save(path, ctx);
            }
        }
    }
    // Leave the network at its best epoch, as the paper reports it.
    best.best_checkpoint
        .load_into(&mut *net)
        .expect("own snapshot always loads");
    if let Some(path) = state_path {
        // The run completed; the state file has served its purpose.
        let _ = std::fs::remove_file(path);
    }
    best
}

/// Single evaluation pass: top-1 accuracy over a dataset in `Mode::Eval`.
///
/// # Panics
///
/// Panics if the dataset is empty.
pub fn eval_accuracy(ctx: &ExecCtx, net: &mut dyn AmsModel, data: &Dataset, batch: usize) -> f32 {
    assert!(!data.is_empty(), "eval_accuracy: empty dataset");
    let _t = ctx.metrics().scope(|| "eval.pass".to_string());
    let mut correct_weighted = 0.0f64;
    let mut total = 0usize;
    for (images, labels) in Batcher::sequential(data, batch) {
        let logits = net.forward(ctx, &images, Mode::Eval);
        correct_weighted += f64::from(accuracy(&logits, &labels)) * labels.len() as f64;
        total += labels.len();
    }
    (correct_weighted / total as f64) as f32
}

/// The paper's reporting protocol: the sample mean and standard deviation
/// of `passes` validation passes.
///
/// When the network injects AMS error at evaluation (`stochastic_eval`),
/// each pass reseeds the noise streams and runs the full validation set —
/// the variance comes from the error itself. For deterministic networks
/// each pass evaluates an independent 80 % subsample (multi-GPU
/// nondeterminism provided the paper's variance; a deterministic
/// single-thread evaluation needs an explicit resampling source — see
/// DESIGN.md).
///
/// # Panics
///
/// Panics if `passes == 0` or the dataset is empty.
pub fn eval_passes(
    ctx: &ExecCtx,
    net: &mut dyn AmsModel,
    val: &Dataset,
    passes: usize,
    batch: usize,
    stochastic_eval: bool,
    base_seed: u64,
) -> Stat {
    assert!(passes > 0, "eval_passes: zero passes");
    let mut samples = Vec::with_capacity(passes);
    for pass in 0..passes {
        let acc = if stochastic_eval {
            net.reseed_noise(
                base_seed
                    .wrapping_add(pass as u64)
                    .wrapping_mul(0x9E37_79B9),
            );
            eval_accuracy(ctx, &mut *net, val, batch)
        } else {
            let mut r = rng::seeded(base_seed.wrapping_add(pass as u64));
            let sub = val.subsample(0.8, &mut r);
            eval_accuracy(ctx, &mut *net, &sub, batch)
        };
        samples.push(f64::from(acc));
    }
    Stat::from_samples(&samples).expect("passes > 0 yields at least one sample")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_data::SynthConfig;
    use ams_models::{HardwareConfig, LeNet5, LeNet5Config, ResNetMini, ResNetMiniConfig};
    use ams_nn::Layer;

    #[test]
    fn training_learns_above_chance() {
        let data = SynthConfig::tiny().generate();
        let mut net = ResNetMini::new(&ResNetMiniConfig::tiny(), &HardwareConfig::fp32());
        let out = train(
            &ExecCtx::serial(),
            &mut net,
            &data.train,
            &data.val,
            6,
            0.08,
            16,
            0,
            &[],
            None,
        );
        let chance = 1.0 / data.config().classes as f64;
        assert!(
            out.best_val_acc > chance + 0.15,
            "best val acc {} barely above chance {chance}",
            out.best_val_acc
        );
        assert_eq!(out.history.len(), 6);
        assert!(out.best_epoch >= 1 && out.best_epoch <= 6);
    }

    #[test]
    fn resumed_training_is_bit_identical() {
        // Train 4 epochs straight vs. "crash" after epoch 2 (simulated by
        // a fresh net + the on-disk TrainState) and resume. Every output
        // must match bitwise — the crash-safety contract of DESIGN.md §9.
        let data = SynthConfig::tiny().generate();
        let ctx = ExecCtx::serial();
        let dir = std::env::temp_dir().join(format!("ams_train_resume_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let state = dir.join("state.json");

        // AMS hardware so the noise streams are live during training/eval.
        let hw = ams_models::HardwareConfig::ams(
            ams_quant::QuantConfig::w8a8(),
            ams_core::vmac::Vmac::new(8, 8, 8, 6.0),
        );
        let arch = ResNetMiniConfig::tiny();
        let decay = [3usize];

        let mut straight = ResNetMini::new(&arch, &hw);
        let full = train(
            &ctx,
            &mut straight,
            &data.train,
            &data.val,
            4,
            0.05,
            16,
            9,
            &decay,
            None,
        );

        // Simulate the kill: run the first 2 epochs by hand (same seed ⇒
        // same trajectory as the straight run) and persist the TrainState
        // a mid-run kill would have left behind.
        let mut prefix = ResNetMini::new(&arch, &hw);
        let mut rng2 = rng::seeded(9);
        let mut opt = Sgd::with_momentum(0.05, 0.9).weight_decay(5e-4);
        let mut hist = Vec::new();
        let mut best_acc = f64::NEG_INFINITY;
        let mut best_epoch = 0usize;
        let mut best_ckpt = Checkpoint::new();
        for epoch in 1..=2 {
            if decay.contains(&epoch) {
                opt.lr *= 0.2;
            }
            let augmented = data.train.random_flip(&mut rng2);
            let mut loss_sum = 0.0;
            let mut batches = 0usize;
            for (images, labels) in Batcher::new(&augmented, 16, &mut rng2) {
                let logits = prefix.forward(&ctx, &images, Mode::Train);
                let (loss, grad) = softmax_cross_entropy(&logits, &labels);
                prefix.backward(&ctx, &grad);
                opt.step(&mut prefix);
                loss_sum += f64::from(loss);
                batches += 1;
            }
            let val_acc = f64::from(eval_accuracy(&ctx, &mut prefix, &data.val, 16));
            hist.push((loss_sum / batches as f64, val_acc));
            if val_acc > best_acc {
                best_acc = val_acc;
                best_epoch = epoch;
                best_ckpt = Checkpoint::from_layer(&mut prefix);
            }
        }
        let st = TrainState {
            epochs_done: 2,
            lr: opt.lr,
            model: Checkpoint::from_layer(&mut prefix),
            velocities: Checkpoint::velocities_from(&mut prefix),
            shuffle_rng: rng::RngState::capture(&rng2),
            error_model: hw.error_model,
            quant: hw.quant.scheme,
            model_kind: ModelKind::ResNetMini,
            noise_states: prefix.noise_states(),
            best_checkpoint: best_ckpt,
            best_val_acc: best_acc,
            best_epoch,
            history: hist,
        };
        let json = serde_json::to_string(&st).unwrap();
        std::fs::write(&state, json).unwrap();

        // Resume into a *fresh* net — everything must come from the file.
        let mut resumed = ResNetMini::new(&arch, &hw);
        let out = train(
            &ctx,
            &mut resumed,
            &data.train,
            &data.val,
            4,
            0.05,
            16,
            9,
            &decay,
            Some(&state),
        );

        assert_eq!(out.best_val_acc, full.best_val_acc);
        assert_eq!(out.best_epoch, full.best_epoch);
        assert_eq!(out.history, full.history, "history must match bitwise");
        for ((n1, t1), (n2, t2)) in full.best_checkpoint.iter().zip(out.best_checkpoint.iter()) {
            assert_eq!(n1, n2);
            assert_eq!(t1, t2, "checkpoint tensor {n1} differs after resume");
        }
        assert!(!state.exists(), "state file is cleaned up on completion");
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A valid epoch-1 state for `net` under `hw`; refusal tests corrupt
    /// exactly one scenario field before writing it.
    fn epoch1_state(net: &mut ResNetMini, hw: &HardwareConfig) -> TrainState {
        TrainState {
            epochs_done: 1,
            lr: 0.05,
            model: Checkpoint::from_layer(net),
            velocities: Checkpoint::velocities_from(net),
            shuffle_rng: rng::RngState::capture(&rng::seeded(9)),
            error_model: hw.error_model,
            quant: hw.quant.scheme,
            model_kind: ModelKind::ResNetMini,
            noise_states: net.noise_states(),
            best_checkpoint: Checkpoint::from_layer(net),
            best_val_acc: 0.5,
            best_epoch: 1,
            history: vec![(1.0, 0.5)],
        }
    }

    /// Writes `st` to a temp state file and resumes a fresh ResNetMini
    /// from it — the refusal asserts fire before any training happens.
    fn resume_from(st: &TrainState, tag: &str) {
        let data = SynthConfig::tiny().generate();
        let ctx = ExecCtx::serial();
        let dir = std::env::temp_dir().join(format!("ams_train_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let state = dir.join("state.json");
        std::fs::write(&state, serde_json::to_string(st).unwrap()).unwrap();

        let hw = ams_models::HardwareConfig::ams(
            ams_quant::QuantConfig::w8a8(),
            ams_core::vmac::Vmac::new(8, 8, 8, 6.0),
        );
        let mut resumed = ResNetMini::new(&ResNetMiniConfig::tiny(), &hw);
        train(
            &ctx,
            &mut resumed,
            &data.train,
            &data.val,
            2,
            0.05,
            16,
            9,
            &[],
            Some(&state),
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    fn refusal_hw_and_state() -> (HardwareConfig, TrainState) {
        let hw = ams_models::HardwareConfig::ams(
            ams_quant::QuantConfig::w8a8(),
            ams_core::vmac::Vmac::new(8, 8, 8, 6.0),
        );
        let mut net = ResNetMini::new(&ResNetMiniConfig::tiny(), &hw);
        let st = epoch1_state(&mut net, &hw);
        (hw, st)
    }

    #[test]
    #[should_panic(expected = "checkpoint was written with error model")]
    fn resume_refuses_a_mismatched_error_model() {
        // A TrainState written under the per-VMAC model must not silently
        // reposition a lumped run's noise cursors.
        let (hw, mut st) = refusal_hw_and_state();
        st.error_model = hw.with_per_vmac_eval().error_model;
        resume_from(&st, "refuse_error_model");
    }

    #[test]
    #[should_panic(expected = "checkpoint was written with quantizer bfp16")]
    fn resume_refuses_a_mismatched_quantizer() {
        // Parameters trained under block-floating-point must not continue
        // under the DoReFa forward function.
        let (_, mut st) = refusal_hw_and_state();
        st.quant = QuantScheme::Bfp { block: 16 };
        resume_from(&st, "refuse_quant");
    }

    #[test]
    #[should_panic(expected = "checkpoint was written for model lenet5")]
    fn resume_refuses_a_mismatched_model() {
        let (_, mut st) = refusal_hw_and_state();
        st.model_kind = ModelKind::LeNet5;
        resume_from(&st, "refuse_model");
    }

    #[test]
    fn old_train_state_without_scenario_fields_still_parses() {
        // States written before the quantizer/model seam lack both fields;
        // they must deserialize to the default scenario, not error.
        let hw = HardwareConfig::fp32();
        let mut net = ResNetMini::new(&ResNetMiniConfig::tiny(), &hw);
        let st = epoch1_state(&mut net, &hw);
        let mut v = serde::Serialize::to_value(&st);
        if let serde::Value::Map(entries) = &mut v {
            entries.retain(|(k, _)| k != "quant" && k != "model_kind");
        }
        let back =
            <TrainState as serde::Deserialize>::from_value(&v).expect("pre-seam state must parse");
        assert_eq!(back.quant, QuantScheme::Dorefa);
        assert_eq!(back.model_kind, ModelKind::ResNetMini);
    }

    #[test]
    fn lenet5_resumable_training_runs_through_the_spec() {
        // Straight 2-epoch run vs. manual epoch 1 + persisted TrainState +
        // resumed epoch 2, every net a boxed ModelSpec build under the BFP
        // quantizer: the §9 bit-identity contract holds for every zoo
        // member and quantizer, not just the default pipeline.
        let data = SynthConfig::tiny().generate();
        let ctx = ExecCtx::serial();
        let dir = std::env::temp_dir().join(format!("ams_train_lenet_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let state = dir.join("state.json");

        let quant = ams_quant::QuantConfig::w8a8().with_scheme(QuantScheme::Bfp { block: 16 });
        let hw = HardwareConfig::ams(quant, ams_core::vmac::Vmac::new(8, 8, 8, 6.0));
        let spec = ams_models::ModelSpec::LeNet5(LeNet5Config::tiny());

        let mut straight = spec.build(&hw);
        let full = train(
            &ctx,
            &mut *straight,
            &data.train,
            &data.val,
            2,
            0.05,
            16,
            9,
            &[],
            None,
        );

        // Manual epoch 1 (same seed ⇒ same trajectory as the straight
        // run), persisted as the TrainState a mid-run kill leaves behind.
        let mut prefix = spec.build(&hw);
        let mut rng2 = rng::seeded(9);
        let opt = Sgd::with_momentum(0.05, 0.9).weight_decay(5e-4);
        let augmented = data.train.random_flip(&mut rng2);
        let mut loss_sum = 0.0;
        let mut batches = 0usize;
        for (images, labels) in Batcher::new(&augmented, 16, &mut rng2) {
            let logits = prefix.forward(&ctx, &images, Mode::Train);
            let (loss, grad) = softmax_cross_entropy(&logits, &labels);
            prefix.backward(&ctx, &grad);
            opt.step(&mut *prefix);
            loss_sum += f64::from(loss);
            batches += 1;
        }
        let val_acc = f64::from(eval_accuracy(&ctx, &mut *prefix, &data.val, 16));
        let st = TrainState {
            epochs_done: 1,
            lr: opt.lr,
            model: Checkpoint::from_layer(&mut *prefix),
            velocities: Checkpoint::velocities_from(&mut *prefix),
            shuffle_rng: rng::RngState::capture(&rng2),
            error_model: hw.error_model,
            quant: hw.quant.scheme,
            model_kind: ModelKind::LeNet5,
            noise_states: prefix.noise_states(),
            best_checkpoint: Checkpoint::from_layer(&mut *prefix),
            best_val_acc: val_acc,
            best_epoch: 1,
            history: vec![(loss_sum / batches as f64, val_acc)],
        };
        std::fs::write(&state, serde_json::to_string(&st).unwrap()).unwrap();

        // Resume into a *fresh* build — everything must come from the file.
        let mut resumed = spec.build(&hw);
        let out = train(
            &ctx,
            &mut *resumed,
            &data.train,
            &data.val,
            2,
            0.05,
            16,
            9,
            &[],
            Some(&state),
        );
        assert_eq!(out.history, full.history, "history must match bitwise");
        assert_eq!(out.best_val_acc, full.best_val_acc);
        for ((n1, t1), (n2, t2)) in full.best_checkpoint.iter().zip(out.best_checkpoint.iter()) {
            assert_eq!(n1, n2);
            assert_eq!(t1, t2, "checkpoint tensor {n1} differs after resume");
        }
        assert!(!state.exists(), "state file is cleaned up on completion");
        // The best checkpoint loads back into a concrete LeNet5.
        let mut concrete = LeNet5::new(&LeNet5Config::tiny(), &hw);
        out.best_checkpoint
            .load_into(&mut concrete)
            .expect("same key-space");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn eval_passes_deterministic_vs_stochastic() {
        let data = SynthConfig::tiny().generate();
        let mut net = ResNetMini::new(&ResNetMiniConfig::tiny(), &HardwareConfig::fp32());
        let s1 = eval_passes(&ExecCtx::serial(), &mut net, &data.val, 3, 16, false, 7);
        let s2 = eval_passes(&ExecCtx::serial(), &mut net, &data.val, 3, 16, false, 7);
        assert_eq!(s1, s2, "same seeds, same subsamples, same stat");
    }
}
