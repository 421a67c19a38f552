//! The paper's core experiment, end to end at test scale: pretrain an FP32
//! ResNet-mini, then compare
//!
//! 1. AMS error injected at **evaluation only** against
//! 2. **retraining with AMS error in the loop** (Fig. 4's two series),
//!
//! demonstrating the accuracy recovery the paper attributes to batch norm.
//!
//! ```text
//! cargo run --release --example retrain_with_ams
//! ```

use ams_repro::core::vmac::Vmac;
use ams_repro::data::SynthConfig;
use ams_repro::exp::{eval_passes, train};
use ams_repro::models::{HardwareConfig, ResNetMini, ResNetMiniConfig};
use ams_repro::nn::{Checkpoint, Layer};
use ams_repro::quant::QuantConfig;
use ams_repro::tensor::ExecCtx;

fn main() {
    // Use every core; results are bit-identical to a serial run.
    let ctx = ExecCtx::auto();
    // A small-but-nontrivial instance so the example finishes in ~a minute.
    let data = SynthConfig {
        classes: 8,
        train_per_class: 64,
        val_per_class: 32,
        ..SynthConfig::quick()
    }
    .generate();
    let arch = ResNetMiniConfig {
        classes: 8,
        ..ResNetMiniConfig::quick()
    };
    let (batch, passes) = (32, 3);

    // 1. Pretrain the FP32 baseline.
    println!("pretraining FP32 baseline ...");
    let mut fp32 = ResNetMini::new(&arch, &HardwareConfig::fp32());
    let out = train(
        &ctx,
        &mut fp32,
        &data.train,
        &data.val,
        16,
        0.05,
        batch,
        0,
        &[10, 14],
        None,
    );
    println!(
        "  FP32 best val accuracy: {:.4} (epoch {})",
        out.best_val_acc, out.best_epoch
    );
    let fp32_ckpt = Checkpoint::from_layer(&mut fp32);

    // A noisy VMAC: low ENOB so the error clearly hurts.
    let quant = QuantConfig::w8a8();
    let vmac = Vmac::new(quant.bw, quant.bx, 8, 6.0);
    println!("VMAC under test: {vmac}");

    // 2a. Eval-only: drop the FP32 weights into AMS hardware untouched.
    let mut eval_only = ResNetMini::new(&arch, &HardwareConfig::ams_eval_only(quant, vmac));
    fp32_ckpt
        .load_into(&mut eval_only)
        .expect("same architecture");
    let acc_eval_only = eval_passes(&ctx, &mut eval_only, &data.val, passes, batch, true, 100);
    println!("  eval-only accuracy under AMS error:  {acc_eval_only}");

    // 2b. Retrain with the error in the loop (last layer excluded during
    //     training, per the paper's Section 2 rule).
    println!("retraining with AMS error in the loop ...");
    let mut retrained = ResNetMini::new(&arch, &HardwareConfig::ams(quant, vmac));
    fp32_ckpt
        .load_into(&mut retrained)
        .expect("same architecture");
    let out = train(
        &ctx,
        &mut retrained,
        &data.train,
        &data.val,
        5,
        0.01,
        batch,
        1,
        &[],
        None,
    );
    let acc_retrained = eval_passes(&ctx, &mut retrained, &data.val, passes, batch, true, 200);
    println!(
        "  retrained accuracy under AMS error:  {acc_retrained} (best epoch {})",
        out.best_epoch
    );

    let recovered = acc_retrained.mean - acc_eval_only.mean;
    println!(
        "\nretraining recovered {:+.4} top-1 ({})",
        recovered,
        if recovered > 0.0 {
            "accuracy recovery, as in the paper's Fig. 4"
        } else {
            "no recovery at this ENOB"
        }
    );

    // Where did the recovery come from? Inspect the batch-norm shifts the
    // paper credits (Fig. 6): mean |beta| grows when retraining with noise.
    let mut beta_fp = 0.0f32;
    let mut beta_ams = 0.0f32;
    let mut count = 0usize;
    fp32.for_each_param(&mut |p| {
        if p.name().ends_with(".beta") {
            beta_fp += p.value.map(f32::abs).sum();
            count += p.value.len();
        }
    });
    retrained.for_each_param(&mut |p| {
        if p.name().ends_with(".beta") {
            beta_ams += p.value.map(f32::abs).sum();
        }
    });
    println!(
        "mean |batch-norm beta|: FP32 {:.4} -> AMS-retrained {:.4} ({} params)",
        beta_fp / count as f32,
        beta_ams / count as f32,
        count
    );
}
