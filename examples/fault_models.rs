//! Beyond additive noise: the paper's §4 refinements, exercised on a real
//! network — fine-grained per-VMAC quantization, static device mismatch,
//! and batch-norm folding for deployment.
//!
//! ```text
//! cargo run --release --example fault_models
//! ```

use ams_repro::core::mismatch::MismatchModel;
use ams_repro::core::vmac::Vmac;
use ams_repro::data::{Batcher, SynthConfig};
use ams_repro::exp::{eval_accuracy, train};
use ams_repro::models::{fold_bn_into_conv, HardwareConfig, ResNetMini, ResNetMiniConfig};
use ams_repro::nn::{BatchNorm2d, Checkpoint, Conv2d, Layer, Mode};
use ams_repro::quant::QuantConfig;
use ams_repro::tensor::{rng, ExecCtx};

fn main() {
    // Use every core; results are bit-identical to a serial run.
    let ctx = ExecCtx::auto();
    // A small trained network to perturb.
    let data = SynthConfig {
        classes: 4,
        ..SynthConfig::tiny()
    }
    .generate();
    let arch = ResNetMiniConfig::tiny();
    let mut fp32 = ResNetMini::new(&arch, &HardwareConfig::fp32());
    println!("pretraining a tiny FP32 network ...");
    let out = train(
        &ctx,
        &mut fp32,
        &data.train,
        &data.val,
        10,
        0.08,
        16,
        0,
        &[7],
        None,
    );
    println!("  best val accuracy: {:.4}\n", out.best_val_acc);
    let fp32_ckpt = Checkpoint::from_layer(&mut fp32);
    let quant = QuantConfig::w8a8();

    // DoReFa's tanh/max-normalization rescales layers, so surgery alone
    // degrades accuracy; briefly retrain the quantized network (as the
    // paper always does) and use *its* checkpoint below.
    let mut qnet = ResNetMini::new(&arch, &HardwareConfig::quantized(quant));
    fp32_ckpt.load_into(&mut qnet).expect("same architecture");
    let out = train(
        &ctx,
        &mut qnet,
        &data.train,
        &data.val,
        6,
        0.01,
        16,
        1,
        &[],
        None,
    );
    println!(
        "quantized (8b/8b) after retraining: {:.4}\n",
        out.best_val_acc
    );
    let ckpt = Checkpoint::from_layer(&mut qnet);

    // 1. Lumped Gaussian vs per-VMAC chunked quantization at the same ENOB.
    let enob = 5.0;
    let vmac = Vmac::new(quant.bw, quant.bx, 8, enob);
    let mut lumped = ResNetMini::new(&arch, &HardwareConfig::ams_eval_only(quant, vmac));
    ckpt.load_into(&mut lumped).expect("same architecture");
    let mut per_vmac = ResNetMini::new(
        &arch,
        &HardwareConfig::ams_eval_only(quant, vmac).with_per_vmac_eval(),
    );
    ckpt.load_into(&mut per_vmac).expect("same architecture");
    println!("error realization at ENOB {enob} (N_mult 8):");
    println!(
        "  lumped Gaussian (Eq. 2):       {:.4}",
        eval_accuracy(&ctx, &mut lumped, &data.val, 16)
    );
    println!(
        "  per-VMAC chunked quantization: {:.4}",
        eval_accuracy(&ctx, &mut per_vmac, &data.val, 16)
    );

    // 2. Static device mismatch: a per-chip, data-dependent fault.
    println!("\nstatic device mismatch (quantized network):");
    for sigma in [0.0f64, 0.02, 0.05, 0.1, 0.2] {
        let mut hw = HardwareConfig::quantized(quant);
        if sigma > 0.0 {
            hw = hw.with_mismatch(MismatchModel::new(sigma, 7));
        }
        let mut net = ResNetMini::new(&arch, &hw);
        ckpt.load_into(&mut net).expect("same architecture");
        println!(
            "  {:>4.0}% devices: accuracy {:.4}",
            sigma * 100.0,
            eval_accuracy(&ctx, &mut net, &data.val, 16)
        );
    }

    // 3. Batch-norm folding: the deployment transform the paper's §2
    //    relies on ("weights can be folded into the convolutional layer").
    println!("\nbatch-norm folding identity check:");
    let mut r = rng::seeded(5);
    let mut conv = Conv2d::new("demo", 3, 4, 3, 1, 1, false, &mut r);
    let mut bn = BatchNorm2d::new("demo_bn", 4);
    // Accumulate realistic running statistics.
    for (images, _) in Batcher::sequential(&data.train, 16).take(8) {
        let y = conv.forward(&ctx, &images, Mode::Train);
        bn.forward(&ctx, &y, Mode::Train);
    }
    let (images, _) = Batcher::sequential(&data.val, 16).next().expect("nonempty");
    let reference = bn.forward(&ctx, &conv.forward(&ctx, &images, Mode::Eval), Mode::Eval);
    let (folded_w, folded_b) = fold_bn_into_conv(&conv.weight().value, &bn);
    let wmat = folded_w.reshaped(&[4, 27]);
    let (folded_y, _) = ams_repro::nn::functional::conv2d_forward(
        &ctx,
        &images,
        &wmat,
        ams_repro::tensor::Density::Sample,
        Some(&folded_b),
        3,
        3,
        1,
        1,
        false,
    );
    let max_err = reference.sub(&folded_y).max_abs();
    println!("  max |conv+BN − folded conv| over a validation batch: {max_err:.2e}");
}
