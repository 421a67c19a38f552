//! `train_ams`: AMS-in-the-loop retraining from the FP32 checkpoint.
//!
//! Each operation is one SGD step at batch [`BATCH`]: a Train-mode
//! forward with error injection, softmax cross-entropy, the backward pass
//! and `Sgd::step`, as `ams_exp`'s training loop runs them. This drives
//! the same layers as the sweeps in the write direction: the
//! straight-through estimator, `col2im`, weight gradients and per-step
//! weight re-quantization.

use std::time::Instant;

use ams_data::Batcher;
use ams_models::AmsModel;
use ams_nn::{softmax_cross_entropy, Mode, Sgd};
use ams_tensor::{rng, ExecCtx};

use crate::fixture::Fixture;
use crate::trace::Tracer;
use crate::{Checks, Outcome, Phase, DEFAULT_SEED};

/// Training batch size.
pub const BATCH: usize = 64;

/// Steps replayed on a fresh network to check the measured run.
const CHECK_STEPS: usize = 4;

/// `train_ams` at [`DEFAULT_SEED`] and quick scale: the loss bits of the
/// first [`CHECK_STEPS`] steps.
const PINNED_LOSS_BITS: [u32; CHECK_STEPS] = [0x402a_af58, 0x402a_2726, 0x4029_b4dd, 0x402a_05e8];

fn fresh_net(fx: &Fixture) -> Box<dyn AmsModel> {
    let mut net = fx.spec.build(&fx.ams_hw);
    fx.fp32
        .load_into(&mut *net)
        .expect("checkpoint matches the architecture it trained");
    net
}

/// Trains a fresh network until `more(step)` says stop, calling
/// `on_step(loss, ms)` after every step. The shuffle stream comes from
/// `seed`, so equal seeds give equal trajectories.
fn train(
    fx: &Fixture,
    seed: u64,
    tr: &mut Tracer,
    mut more: impl FnMut(usize) -> bool,
    mut on_step: impl FnMut(f32, f64),
) {
    let ctx = ExecCtx::serial();
    let mut net = fresh_net(fx);
    let opt = Sgd::with_momentum(fx.scale.retrain_lr, 0.9).weight_decay(5e-4);
    let mut shuffle = rng::seeded(seed);
    let mut step = 0;
    while more(step) {
        let augmented = fx.data.train.random_flip(&mut shuffle);
        for (images, labels) in Batcher::new(&augmented, BATCH, &mut shuffle) {
            tr.begin("train.step");
            let t0 = Instant::now();
            let logits = tr.span("train.forward", || net.forward(&ctx, &images, Mode::Train));
            let (loss, grad) = tr.span("train.loss", || softmax_cross_entropy(&logits, &labels));
            tr.span("train.backward", || net.backward(&ctx, &grad));
            tr.span("train.sgd_step", || opt.step(&mut *net));
            on_step(loss, t0.elapsed().as_secs_f64() * 1e3);
            tr.end();
            step += 1;
            if !more(step) {
                break;
            }
        }
    }
}

/// Trains for `seconds`.
pub fn run(
    fx: &Fixture,
    seconds: f64,
    seed: u64,
    smoke: bool,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> Outcome {
    let mut out = Outcome::default();
    let mut losses = Vec::new();
    let phase = Phase::start();
    train(
        fx,
        seed,
        tr,
        |step| step < CHECK_STEPS || phase.elapsed_s() < seconds,
        |loss, ms| {
            losses.push(loss);
            out.op_ms.push(ms);
            out.progress.push((phase.elapsed_s(), BATCH));
        },
    );
    out.ops_attempted = losses.len();
    phase.finish(&mut out, losses.len() * BATCH);

    checks.check(
        "every training loss is finite",
        losses.iter().all(|l| l.is_finite()),
    );
    let mut replay = Vec::new();
    train(
        fx,
        seed,
        &mut Tracer::new(false),
        |step| step < CHECK_STEPS,
        |loss, _| replay.push(loss),
    );
    let bits = |v: &[f32]| v.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
    checks.check(
        "a fresh network retraces the first steps' losses bit for bit",
        bits(&replay) == bits(&losses[..CHECK_STEPS]),
    );
    if seed == DEFAULT_SEED && !smoke {
        checks.check_eq(
            "first steps' losses match the pinned values",
            &format!("{:08x?}", bits(&losses[..CHECK_STEPS])),
            &format!("{PINNED_LOSS_BITS:08x?}"),
        );
    }
    out
}
