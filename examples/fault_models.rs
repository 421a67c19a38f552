//! Beyond additive noise: the paper's §4 refinements, exercised on a real
//! network — fine-grained per-VMAC quantization and static device
//! mismatch.
//!
//! ```text
//! cargo run --release --example fault_models
//! ```

use ams_repro::core::mismatch::MismatchModel;
use ams_repro::core::vmac::Vmac;
use ams_repro::data::SynthConfig;
use ams_repro::exp::{eval_accuracy, train};
use ams_repro::models::{HardwareConfig, ResNetMini, ResNetMiniConfig};
use ams_repro::nn::Checkpoint;
use ams_repro::quant::QuantConfig;
use ams_repro::tensor::ExecCtx;

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
}
