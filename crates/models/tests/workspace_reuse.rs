//! Steady-state allocation behavior of the quantized layers: once the
//! workspace arena is warm, eval forwards draw every f32 buffer and i16
//! GEMM panel from the pool — zero fresh workspace buffers in the hot
//! path, on both kernels.

use ams_models::{HardwareConfig, InputKind, QConv2d, QLinear};
use ams_nn::{Layer, Mode};
use ams_quant::QuantConfig;
use ams_tensor::{rng, ExecCtx, KernelDispatch, Tensor};

fn input(dims: &[usize], seed: u64) -> Tensor {
    let mut t = Tensor::zeros(dims);
    let mut r = rng::seeded(seed);
    rng::fill_uniform(&mut t, 0.0, 1.0, &mut r);
    t
}

/// After one warm-up forward, QConv2d eval forwards allocate nothing:
/// every tensor (quantized input, quantized weight, lowered columns or
/// coded panels, product matrix, output) cycles through the context's
/// workspace.
#[test]
fn qconv_eval_steady_state_allocates_nothing() {
    qconv_eval_steady_state(KernelDispatch::F32);
}

/// The i8 twin: the coded input, its lowered panel and the weight panel
/// come from the workspace's i16 pool.
#[test]
fn qconv_i8_eval_steady_state_allocates_nothing() {
    qconv_eval_steady_state(KernelDispatch::I8);
}

/// Same steady-state contract for the quantized classifier head.
#[test]
fn qlinear_eval_steady_state_allocates_nothing() {
    qlinear_eval_steady_state(KernelDispatch::F32);
}

/// The classifier head on the i8 kernel: the input is coded straight
/// into a pooled panel.
#[test]
fn qlinear_i8_eval_steady_state_allocates_nothing() {
    qlinear_eval_steady_state(KernelDispatch::I8);
}

fn qconv_eval_steady_state(kernel: KernelDispatch) {
    let ctx = ExecCtx::serial().with_kernel(kernel);
    let ws = ctx.workspace();
    let mut r = rng::seeded(0);
    let hw = HardwareConfig::quantized(QuantConfig::w8a8());
    let mut qc = QConv2d::new("c", 3, 8, 3, 1, 1, &hw, InputKind::Unit, 0, &mut r);
    let x = input(&[2, 3, 10, 10], 1);

    // Warm-up: the pool starts empty, so this forward allocates.
    let y = qc.forward(&ctx, &x, Mode::Eval);
    ws.recycle(y);
    let warm = ws.fresh_allocs();
    assert!(warm > 0, "warm-up must populate the pool");

    // Steady state: the caller recycles the output (as the next layer /
    // the runner does), so every subsequent forward reuses pooled
    // buffers exclusively.
    let mut seen = Vec::new();
    for i in 0..8 {
        let y = qc.forward(&ctx, &x, Mode::Eval);
        assert_eq!(
            ws.fresh_allocs(),
            warm,
            "eval forward {i} allocated fresh buffers in steady state"
        );
        seen.push(y.data().as_ptr());
        ws.recycle(y);
    }
    // The outputs come from a small cycle of pooled buffers (warm-up
    // created a handful in the output's capacity class; LIFO pop order
    // rotates among them). Physical reuse shows up as repeated
    // pointers, not fresh addresses every pass.
    let mut distinct: Vec<_> = seen.clone();
    distinct.sort();
    distinct.dedup();
    assert!(
        distinct.len() < seen.len(),
        "8 steady-state forwards returned 8 distinct buffers — no reuse: {seen:?}"
    );
}

fn qlinear_eval_steady_state(kernel: KernelDispatch) {
    let ctx = ExecCtx::serial().with_kernel(kernel);
    let ws = ctx.workspace();
    let mut r = rng::seeded(2);
    let hw = HardwareConfig::quantized(QuantConfig::w8a8());
    let mut fc = QLinear::new("fc", 32, 10, &hw, true, 0, &mut r);
    let x = input(&[4, 32], 3);

    let y = fc.forward(&ctx, &x, Mode::Eval);
    ws.recycle(y);
    let warm = ws.fresh_allocs();

    for i in 0..4 {
        let y = fc.forward(&ctx, &x, Mode::Eval);
        assert_eq!(
            ws.fresh_allocs(),
            warm,
            "eval forward {i} allocated fresh buffers in steady state"
        );
        ws.recycle(y);
    }
    assert!(ws.pool_hits() > 0, "steady state must hit the pool");
}

/// Train-mode forwards keep the backward cache and STE scale alive, but
/// the *next* forward retires them back into the pool, so training also
/// reaches a steady state (one forward's working set in flight).
#[test]
fn qconv_train_reaches_steady_state() {
    let ctx = ExecCtx::serial();
    let ws = ctx.workspace();
    let mut r = rng::seeded(4);
    let hw = HardwareConfig::quantized(QuantConfig::w8a8());
    let mut qc = QConv2d::new("c", 3, 8, 3, 1, 1, &hw, InputKind::Unit, 0, &mut r);
    let x = input(&[2, 3, 10, 10], 5);

    // Two warm-ups: the first fills the pool, the second may still
    // allocate because the first forward's cache is only retired at the
    // start of the second.
    for _ in 0..2 {
        let y = qc.forward(&ctx, &x, Mode::Train);
        ws.recycle(y);
    }
    let warm = ws.fresh_allocs();
    for i in 0..3 {
        let y = qc.forward(&ctx, &x, Mode::Train);
        assert_eq!(
            ws.fresh_allocs(),
            warm,
            "train forward {i} allocated fresh buffers in steady state"
        );
        ws.recycle(y);
    }
}
