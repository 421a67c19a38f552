//! `sweep_f32` / `sweep_i8`: the Fig. 4 eval-only grid, the paper's unit
//! of work.
//!
//! Points cycle through the scale's ENOB grid. Each point builds a fresh
//! unfrozen AMS-eval-only network from the w8a8 checkpoint (as
//! `Experiments::ams_eval_only` does) and runs [`PASSES`] reseeded passes
//! over the validation split in batches of [`BATCH`]. The operation
//! timed is one batch forward; the run stops at the first pass boundary
//! after the time budget.

use std::time::Instant;

use ams_data::Batcher;
use ams_models::{AmsModel, HardwareConfig};
use ams_nn::{accuracy, Mode};
use ams_quant::QuantConfig;
use ams_tensor::{noise_stream_seed, ExecCtx, KernelDispatch};

use crate::fixture::{vmac, Fixture};
use crate::trace::Tracer;
use crate::{Checks, Outcome, Phase, DEFAULT_SEED};

/// Validation passes per ENOB point (the paper's five).
pub const PASSES: usize = 5;

/// Evaluation batch size.
pub const BATCH: usize = 64;

/// `sweep_f32` at [`DEFAULT_SEED`] and quick scale: the bits of the first
/// pass's accuracy at the first grid point.
const PINNED_F32_ACC_BITS: u32 = 0x3D86_6666;

/// One completed validation pass.
struct Pass {
    enob: f64,
    /// `eval_passes` base seed that reproduces this pass as its pass 0.
    base_seed: u64,
    acc: f32,
}

fn build_net(fx: &Fixture, enob: f64) -> Box<dyn AmsModel> {
    let hw = HardwareConfig::ams_eval_only(QuantConfig::w8a8(), vmac(enob));
    let mut net = fx.spec.build(&hw);
    fx.quant
        .load_into(&mut *net)
        .expect("checkpoint matches the architecture it trained");
    net
}

/// One pass's accuracy through `ams_exp::eval_passes`, the harness path
/// the figure binaries use.
fn reference_acc(fx: &Fixture, kernel: KernelDispatch, pass: &Pass) -> f64 {
    let mut net = build_net(fx, pass.enob);
    let ctx = ExecCtx::serial().with_kernel(kernel);
    ams_exp::eval_passes(
        &ctx,
        &mut *net,
        &fx.data.val,
        1,
        BATCH,
        true,
        pass.base_seed,
    )
    .mean
}

/// Binomial standard deviation of an accuracy over `n` images.
fn binomial_sd(p: f64, n: usize) -> f64 {
    (p * (1.0 - p) / n as f64).sqrt()
}

/// Runs the sweep for `seconds` under `kernel`.
pub fn run(
    fx: &Fixture,
    kernel: KernelDispatch,
    seconds: f64,
    seed: u64,
    smoke: bool,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> Outcome {
    let ctx = ExecCtx::serial().with_kernel(kernel);
    let grid = &fx.scale.enob_grid;
    let val = &fx.data.val;
    let mut out = Outcome::default();
    let mut passes = Vec::new();
    let phase = Phase::start();
    'points: for point in 0.. {
        let enob = grid[point % grid.len()];
        let point_seed = noise_stream_seed(seed, point as u64);
        let mut net = build_net(fx, enob);
        for pass in 0..PASSES {
            // The reseed `eval_passes` applies to its pass `pass`.
            let base_seed = point_seed.wrapping_add(pass as u64);
            net.reseed_noise(base_seed.wrapping_mul(0x9E37_79B9));
            let mut correct = 0.0f64;
            let mut total = 0usize;
            for (images, labels) in Batcher::sequential(val, BATCH) {
                tr.begin("sweep.batch");
                let t0 = Instant::now();
                let logits = net.forward(&ctx, &images, Mode::Eval);
                out.op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                out.progress.push((phase.elapsed_s(), labels.len()));
                tr.end();
                correct += f64::from(accuracy(&logits, &labels)) * labels.len() as f64;
                total += labels.len();
            }
            passes.push(Pass {
                enob,
                base_seed,
                acc: (correct / total as f64) as f32,
            });
            if phase.elapsed_s() >= seconds {
                break 'points;
            }
        }
    }
    out.ops_attempted = out.op_ms.len();
    let images = out.progress.iter().map(|&(_, n)| n).sum();
    phase.finish(&mut out, images);

    // A seed-chosen pass must be bit-identical to the harness's own
    // evaluation of it.
    let pass = &passes[noise_stream_seed(seed, 0xC4EC) as usize % passes.len()];
    let reference = reference_acc(fx, kernel, pass);
    checks.check(
        "sweep pass equals eval_passes bit for bit",
        reference.to_bits() == f64::from(pass.acc).to_bits(),
    );
    if kernel == KernelDispatch::I8 {
        // The i8 kernel rounds differently: it must stay within the
        // statistical bound of the f32 evaluation of the same pass.
        let f32_acc = reference_acc(fx, KernelDispatch::F32, pass);
        let i8_acc = f64::from(pass.acc);
        let n = val.len();
        let bound = 3.0 * (binomial_sd(f32_acc, n) + binomial_sd(i8_acc, n)) + 0.1;
        checks.check(
            "i8 pass within 3(sd_f32 + sd_i8) + 0.1 of f32",
            (i8_acc - f32_acc).abs() <= bound,
        );
    } else if seed == DEFAULT_SEED && !smoke {
        checks.check_eq(
            "first pass matches the pinned accuracy bits",
            &format!("{:#010x}", passes[0].acc.to_bits()),
            &format!("{PINNED_F32_ACC_BITS:#010x}"),
        );
    }
    out
}
