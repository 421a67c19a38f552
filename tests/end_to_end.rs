//! End-to-end integration: the full paper workflow — pretrain, surgery,
//! retraining, evaluation — at test scale, plus the checkpoint plumbing
//! that carries weights between hardware configurations.

use ams_repro::core::vmac::Vmac;
use ams_repro::data::SynthConfig;
use ams_repro::exp::{eval_accuracy, eval_passes, train};
use ams_repro::models::{AmsModel, FreezePolicy, HardwareConfig, ResNetMini, ResNetMiniConfig};
use ams_repro::nn::{Checkpoint, Layer};
use ams_repro::quant::QuantConfig;
use ams_repro::tensor::ExecCtx;

mod common;

fn pretrained() -> (
    ams_repro::data::SynthImageNet,
    ResNetMiniConfig,
    Checkpoint,
    f32,
) {
    // More data and epochs than SynthConfig::tiny's defaults: these tests
    // need a solidly-trained starting point, not a speed record.
    let data = SynthConfig {
        train_per_class: 48,
        val_per_class: 16,
        ..SynthConfig::tiny()
    }
    .generate();
    let arch = ResNetMiniConfig::tiny();
    let mut net = ResNetMini::new(&arch, &HardwareConfig::fp32());
    let _out = train(
        &ExecCtx::serial(),
        &mut net,
        &data.train,
        &data.val,
        12,
        0.08,
        16,
        0,
        &[8, 11],
        None,
    );
    let acc = eval_accuracy(&ExecCtx::serial(), &mut net, &data.val, 16);
    (data, arch, Checkpoint::from_layer(&mut net), acc)
}

#[test]
fn paper_workflow_pretrain_surgery_retrain() {
    let (data, arch, fp32_ckpt, fp32_acc) = pretrained();
    let chance = 1.0 / arch.classes as f32;
    assert!(
        fp32_acc > chance + 0.3,
        "FP32 pretraining failed: {fp32_acc}"
    );

    // Surgery: drop the FP32 weights into quantized hardware. DoReFa's
    // tanh/max-normalized weight transform rescales every layer, so
    // accuracy drops until retraining re-adapts (which is why the paper
    // always retrains after surgery) — but the network must stay far
    // above chance.
    let quant = QuantConfig::w8a8();
    let mut qnet = ResNetMini::new(&arch, &HardwareConfig::quantized(quant));
    fp32_ckpt.load_into(&mut qnet).expect("same architecture");
    let q_acc = eval_accuracy(&ExecCtx::serial(), &mut qnet, &data.val, 16);
    assert!(
        q_acc > chance + 0.3,
        "8b surgery should keep the network functional: {q_acc} vs chance {chance}"
    );

    // Heavy AMS noise at eval destroys accuracy...
    let noisy_vmac = Vmac::new(8, 8, 8, 2.0);
    let mut noisy = ResNetMini::new(&arch, &HardwareConfig::ams_eval_only(quant, noisy_vmac));
    fp32_ckpt.load_into(&mut noisy).expect("same architecture");
    let noisy_acc = eval_passes(&ExecCtx::serial(), &mut noisy, &data.val, 3, 16, true, 9);
    assert!(
        noisy_acc.mean < f64::from(fp32_acc) - 0.2,
        "ENOB 2 should clearly degrade accuracy: {} vs {fp32_acc}",
        noisy_acc.mean
    );

    // ...and a moderate level degrades less than the heavy one.
    let mild_vmac = Vmac::new(8, 8, 8, 6.0);
    let mut mild = ResNetMini::new(&arch, &HardwareConfig::ams_eval_only(quant, mild_vmac));
    fp32_ckpt.load_into(&mut mild).expect("same architecture");
    let mild_acc = eval_passes(&ExecCtx::serial(), &mut mild, &data.val, 3, 16, true, 9);
    assert!(
        mild_acc.mean > noisy_acc.mean,
        "monotone degradation: ENOB 6 ({}) must beat ENOB 2 ({})",
        mild_acc.mean,
        noisy_acc.mean
    );

    // Retraining with the error in the loop must keep the network
    // trainable (the last layer is excluded during training, per §2).
    let mut retrained = ResNetMini::new(&arch, &HardwareConfig::ams(quant, mild_vmac));
    fp32_ckpt
        .load_into(&mut retrained)
        .expect("same architecture");
    let out = train(
        &ExecCtx::serial(),
        &mut retrained,
        &data.train,
        &data.val,
        2,
        0.01,
        16,
        3,
        &[],
        None,
    );
    assert!(
        out.best_val_acc > f64::from(chance) + 0.2,
        "retraining with AMS error lost the network: {}",
        out.best_val_acc
    );
}

#[test]
fn freezing_policies_affect_only_their_groups() {
    let (_data, arch, fp32_ckpt, _) = pretrained();
    let vmac = Vmac::new(8, 8, 8, 5.0);
    let hw = HardwareConfig::ams(QuantConfig::w8a8(), vmac);
    let mut net = ResNetMini::new(&arch, &hw);
    fp32_ckpt.load_into(&mut net).expect("same architecture");
    net.apply_freeze(FreezePolicy::BnFc);

    // Snapshot, train one step, verify frozen groups did not move.
    let before = Checkpoint::from_layer(&mut net);
    let data = SynthConfig::tiny().generate();
    train(
        &ExecCtx::serial(),
        &mut net,
        &data.train,
        &data.val,
        1,
        0.05,
        16,
        0,
        &[],
        None,
    );
    let mut moved_frozen = Vec::new();
    let mut moved_free = 0usize;
    net.for_each_param(&mut |p| {
        let old = before.get(p.name()).expect("snapshotted");
        let changed = old.data().iter().zip(p.value.data()).any(|(a, b)| a != b);
        if p.frozen && changed {
            moved_frozen.push(p.name().to_string());
        }
        if !p.frozen && changed {
            moved_free += 1;
        }
    });
    assert!(
        moved_frozen.is_empty(),
        "frozen parameters moved: {moved_frozen:?}"
    );
    assert!(moved_free > 0, "unfrozen parameters should train");
}

#[test]
fn checkpoint_json_round_trip_through_disk() {
    let (_, arch, ckpt, _) = pretrained();
    let path = std::env::temp_dir().join("ams_repro_e2e_ckpt.json");
    ckpt.save_json(&path).expect("write");
    let loaded = Checkpoint::load_json(&path).expect("read");
    let mut a = ResNetMini::new(&arch, &HardwareConfig::fp32());
    let mut b = ResNetMini::new(&arch, &HardwareConfig::fp32());
    ckpt.load_into(&mut a).expect("load original");
    loaded.load_into(&mut b).expect("load round-tripped");
    let x = common::seeded_uniform(&[2, 3, 8, 8], 0.0, 1.0, 1);
    use ams_repro::nn::Mode;
    assert_eq!(
        a.forward(&ExecCtx::serial(), &x, Mode::Eval),
        b.forward(&ExecCtx::serial(), &x, Mode::Eval)
    );
    let _ = std::fs::remove_file(path);
}

#[test]
fn noisy_eval_identical_for_any_thread_count() {
    // The AMS noise streams are seeded per layer, never per worker, so a
    // stochastic evaluation must report the exact same statistics whether
    // it runs serially or on a pool — the determinism contract that makes
    // `--threads` a pure wall-clock knob.
    let (data, arch, ckpt, _) = pretrained();
    let vmac = Vmac::new(8, 8, 8, 5.0);
    let eval_at = |threads: usize| {
        let ctx = if threads == 1 {
            ExecCtx::serial()
        } else {
            ExecCtx::with_threads(threads)
        };
        let mut net = ResNetMini::new(
            &arch,
            &HardwareConfig::ams_eval_only(QuantConfig::w8a8(), vmac),
        );
        ckpt.load_into(&mut net).expect("same architecture");
        eval_passes(&ctx, &mut net, &data.val, 3, 16, true, 41)
    };
    let serial = eval_at(1);
    for threads in [2usize, 8] {
        let stat = eval_at(threads);
        assert_eq!(
            serial.mean.to_bits(),
            stat.mean.to_bits(),
            "{threads} threads"
        );
        assert_eq!(
            serial.std.to_bits(),
            stat.std.to_bits(),
            "{threads} threads"
        );
    }
}

#[test]
fn stochastic_eval_reports_nonzero_variance() {
    let (data, arch, ckpt, _) = pretrained();
    let vmac = Vmac::new(8, 8, 8, 5.0);
    let mut net = ResNetMini::new(
        &arch,
        &HardwareConfig::ams_eval_only(QuantConfig::w8a8(), vmac),
    );
    ckpt.load_into(&mut net).expect("same architecture");
    let stat = eval_passes(&ExecCtx::serial(), &mut net, &data.val, 4, 16, true, 77);
    assert!(stat.std > 0.0, "independent noisy passes must differ");
    assert!(stat.mean > 0.0 && stat.mean <= 1.0);
}
