//! The traced run's layer replay.
//!
//! The workload itself only calls whole-model entry points, so the traced
//! run replays every analog layer through the public API of the crate
//! that owns it, with the trained weights and the shapes the workload
//! uses, inside named spans:
//!
//! - `models.<layer>.fwd` / `.bwd`: `Layer::forward` (eval, the
//!   workload's kernel) and `Layer::backward` (after a train forward) on
//!   the loaded network's own layers, reached through `for_each_qconv`,
//!   plus a classifier twin loaded from the same checkpoint. Inputs are
//!   seeded `[0, 1]` tensors at each layer's input shape.
//! - `models.model_fwd`: the whole eval forward at the sweep batch.
//! - `quant.*`, `tensor.*`, `core.*`: each layer's forward split into the
//!   phases the layer runs, called directly: activation and weight
//!   quantization, im2col, the f32 GEMM, i8 coding, i16 packing, the i8
//!   GEMM, whole-tensor injection and per-request injection.
//! - `nn.*`: loss and optimizer step of a training step.
//! - `serve.forward_b*`: a frozen serving replica's forward with
//!   per-request seeds, on one thread as a daemon worker runs it.
//!
//! Iteration 0 is an untraced warm-up; [`ITERS`] traced iterations follow
//! under one `replay.iter` span each.

use std::hint::black_box;
use std::sync::Arc;

use ams_core::error_model::{ErrorModel, NoiseContext};
use ams_models::{HardwareConfig, ModelKind, QLinear, ResNetMini};
use ams_nn::{softmax_cross_entropy, Layer, Mode, Sgd};
use ams_quant::{build_quantizer, QuantConfig, Quantizer};
use ams_tensor::{
    im2col_in, matmul_a_bt_in, matmul_i8_a_bt_in, matmul_i8_in, matmul_in, noise_stream_seed,
    pack_cols_i16, pack_rows_i16, quantize_symmetric_i8, rng, ConvGeom, ExecCtx, KernelDispatch,
    Tensor,
};

use crate::fixture::{vmac, Fixture, AMS_ENOB};
use crate::trace::Tracer;

/// Traced replay iterations.
pub const ITERS: usize = 7;

/// The sweep and training batch the replay shapes its inputs for.
const BATCH: usize = 64;

/// The daemon's largest coalesced batch (`ServeConfig::default`).
const SERVE_BATCH: usize = 8;

/// Eval forwards over which workspace allocations are averaged.
const WS_FORWARDS: usize = 4;

/// The classifier's noise-stream index in `ResNetMini`.
const FC_NOISE_INDEX: u64 = 1000;

/// One convolution's replay input.
struct ConvIn {
    name: String,
    x: Tensor,
    geom: ConvGeom,
    c_out: usize,
    index: u64,
}

/// The input side length of a ResNet-mini convolution, from its name:
/// stage 1 keeps the image size, stages 2 and 3 halve it in their first
/// block's `conv1` and projection `down`.
fn input_side(name: &str, image: usize) -> usize {
    let stage_out = |s: usize| image >> (s - 1).min(2);
    let stage_in = |s: usize| if s <= 2 { image } else { stage_out(s - 1) };
    let parts: Vec<&str> = name.split('.').collect();
    let (Some(stage), Some(block), Some(kind)) = (
        parts
            .first()
            .and_then(|p| p.strip_prefix('s')?.parse::<usize>().ok()),
        parts
            .get(1)
            .and_then(|p| p.strip_prefix('b')?.parse::<usize>().ok()),
        parts.get(2),
    ) else {
        return image; // the stem
    };
    if block == 0 && (*kind == "conv1" || *kind == "down") {
        stage_in(stage)
    } else {
        stage_out(stage)
    }
}

fn uniform(dims: &[usize], r: &mut impl rand::Rng) -> Tensor {
    let mut t = Tensor::zeros(dims);
    rng::fill_uniform(&mut t, 0.0, 1.0, r);
    t
}

fn loaded_fc(fx: &Fixture, hw: &HardwareConfig, ckpt: &ams_nn::Checkpoint) -> QLinear {
    let arch = fx.scale.arch;
    let mut fc = QLinear::new(
        "fc",
        arch.stage_widths[2],
        arch.classes,
        hw,
        true,
        FC_NOISE_INDEX,
        &mut rng::seeded(0),
    );
    ckpt.load_into(&mut fc)
        .expect("checkpoint holds the classifier");
    fc
}

fn loaded_net(fx: &Fixture, hw: &HardwareConfig, ckpt: &ams_nn::Checkpoint) -> ResNetMini {
    let mut net = ResNetMini::new(&fx.scale.arch, hw);
    ckpt.load_into(&mut net)
        .expect("checkpoint matches the architecture it trained");
    net
}

/// Widens weight and activation codes into i16 panels, as the i8 GEMM's
/// pack step does.
fn pack(w: &[i8], a: &[i8], kdim: usize, n: usize, a_is_cols: bool) -> (Vec<i16>, Vec<i16>) {
    let mut wp = vec![0i16; w.len()];
    pack_rows_i16(w, &mut wp);
    let mut ap = vec![0i16; a.len()];
    if a_is_cols {
        pack_cols_i16(a, kdim, n, &mut ap);
    } else {
        pack_rows_i16(a, &mut ap);
    }
    (wp, ap)
}

/// Whole-tensor injection, then per-request injection over the first
/// [`SERVE_BATCH`] images' output slices.
fn inject(
    t: &mut Tracer,
    model: &mut dyn ErrorModel,
    y: &mut Tensor,
    index: u64,
    n_tot: usize,
    batch: usize,
    seed: u64,
) {
    let ctx = NoiseContext::eval(index);
    t.span("core.inject", || model.inject(&ctx, y, n_tot));
    let per_image = y.len() / batch;
    t.span("core.inject_slice", || {
        for (i, chunk) in y
            .data_mut()
            .chunks_mut(per_image)
            .take(SERVE_BATCH)
            .enumerate()
        {
            let stream = noise_stream_seed(seed.wrapping_add(i as u64), index);
            model.inject_slice(&ctx.with_stream(stream), chunk, n_tot);
        }
    });
}

fn conv_phases(
    t: &mut Tracer,
    ctx: &ExecCtx,
    q: &dyn Quantizer,
    c: &ConvIn,
    w: &Tensor,
    model: &mut dyn ErrorModel,
    seed: u64,
) {
    let ws = ctx.workspace();
    let (kdim, n) = (c.geom.rows(), c.geom.cols());
    let xq = t.span("quant.act", || q.quantize_activations_in(ws, &c.x));
    let qw = t.span("quant.weight", || q.quantize_weights_in(ws, w));
    let qi = t.span("quant.weight_i8", || q.quantize_weights_i8_in(ws, w));
    let cols = t.span("tensor.im2col", || im2col_in(ctx, &xq, &c.geom));
    let wmat = qw
        .values
        .reshape(&[c.c_out, kdim])
        .expect("weight matrix shape");
    let mut y = t.span("tensor.gemm_f32", || matmul_in(ctx, &wmat, &cols));
    let (codes, scale) = t.span("tensor.i8_code", || quantize_symmetric_i8(cols.data()));
    black_box(t.span("tensor.i8_pack", || pack(&qi.codes, &codes, kdim, n, true)));
    let y8 = t.span("tensor.gemm_i8", || {
        matmul_i8_in(
            ctx,
            c.c_out,
            kdim,
            n,
            &qi.codes,
            &codes,
            qi.scale * scale,
            qi.sparse,
        )
    });
    inject(t, model, &mut y, c.index, kdim, c.geom.n, seed);
    for buf in [xq, qw.ste_scale, wmat, cols, y, y8] {
        ws.recycle(buf);
    }
}

fn fc_phases(
    t: &mut Tracer,
    ctx: &ExecCtx,
    q: &dyn Quantizer,
    x: &Tensor,
    w: &Tensor,
    model: &mut dyn ErrorModel,
    seed: u64,
) {
    let ws = ctx.workspace();
    let (batch, kdim) = (x.dims()[0], x.dims()[1]);
    let out = w.dims()[0];
    let xq = t.span("quant.act", || q.quantize_activations_in(ws, x));
    let qw = t.span("quant.weight", || q.quantize_weights_in(ws, w));
    let qi = t.span("quant.weight_i8", || q.quantize_weights_i8_in(ws, w));
    let mut y = t.span("tensor.gemm_f32", || matmul_a_bt_in(ctx, &xq, &qw.values));
    let (codes, scale) = t.span("tensor.i8_code", || quantize_symmetric_i8(xq.data()));
    black_box(t.span("tensor.i8_pack", || {
        pack(&qi.codes, &codes, kdim, batch, false)
    }));
    let y8 = t.span("tensor.gemm_i8", || {
        matmul_i8_a_bt_in(
            ctx,
            batch,
            kdim,
            out,
            &codes,
            &qi.codes,
            scale * qi.scale,
            None,
            false,
        )
    });
    inject(t, model, &mut y, FC_NOISE_INDEX, kdim, batch, seed);
    for buf in [xq, qw.values, qw.ste_scale, y, y8] {
        ws.recycle(buf);
    }
}

/// Runs the replay into `tr`. Returns the analog layers' names in forward
/// order and the fresh workspace buffers per steady-state eval forward.
pub fn run(fx: &Fixture, kernel: KernelDispatch, seed: u64, tr: &mut Tracer) -> (Vec<String>, f64) {
    let ctx = ExecCtx::serial().with_kernel(kernel);
    let f32_ctx = ExecCtx::serial();
    let ws = ctx.workspace();
    let size = fx.scale.synth.image_size;
    let eval_hw = HardwareConfig::ams_eval_only(QuantConfig::w8a8(), vmac(AMS_ENOB))
        .with_model_tag(ModelKind::ResNetMini);
    let train_hw = fx.ams_hw.with_model_tag(ModelKind::ResNetMini);
    let mut eval_net = loaded_net(fx, &eval_hw, &fx.quant);
    let mut train_net = loaded_net(fx, &train_hw, &fx.fp32);
    let mut fc_eval = loaded_fc(fx, &eval_hw, &fx.quant);
    let mut fc_train = loaded_fc(fx, &train_hw, &fx.fp32);
    let mut replica = fx.spec.build(&fx.ams_hw);
    fx.quant
        .load_into(&mut *replica)
        .expect("checkpoint matches the architecture it trained");
    replica.adopt_shared_weights(&fx.frozen);

    let batch = BATCH.min(fx.data.val.len());
    let (batch_x, labels) = fx.data.val.select(&(0..batch).collect::<Vec<_>>());
    let serve_n = SERVE_BATCH.min(batch);
    let (x1, _) = fx.data.val.select(&[0]);
    let (x8, _) = fx.data.val.select(&(0..serve_n).collect::<Vec<_>>());
    let seeds1 = Arc::new(vec![noise_stream_seed(seed, 1)]);
    let seeds8 = Arc::new(
        (0..serve_n as u64)
            .map(|i| noise_stream_seed(seed, i))
            .collect::<Vec<_>>(),
    );

    let mut r = rng::seeded(seed);
    let mut convs = Vec::new();
    let mut weights = Vec::new();
    eval_net.for_each_qconv(&mut |c| {
        let w = c.weight().value.clone();
        let (c_out, c_in, k) = (w.dims()[0], w.dims()[1], w.dims()[2]);
        let h = input_side(c.name(), size);
        let x = uniform(&[batch, c_in, h, h], &mut r);
        let oh = c.forward(&ctx, &x, Mode::Eval).dims()[2];
        convs.push(ConvIn {
            name: c.name().to_string(),
            x,
            geom: ConvGeom::new(batch, c_in, h, h, k, k, h / oh, k / 2),
            c_out,
            index: convs.len() as u64,
        });
        weights.push(w);
    });
    let x_fc = uniform(&[batch, fx.scale.arch.stage_widths[2]], &mut r);
    let w_fc = fc_eval.weight().value.clone();
    let quantizer = build_quantizer(eval_hw.quant, eval_hw.scheme);
    let mut models: Vec<Box<dyn ErrorModel>> = convs
        .iter()
        .map(|c| eval_hw.build_error_model(c.index))
        .collect();
    let mut fc_model = eval_hw.build_error_model(FC_NOISE_INDEX);
    let opt = Sgd::with_momentum(fx.scale.retrain_lr, 0.9).weight_decay(5e-4);

    let mut warm_up = Tracer::new(false);
    for iter in 0..=ITERS {
        let t: &mut Tracer = if iter == 0 { &mut warm_up } else { &mut *tr };
        t.begin("replay.iter");
        let mut k = 0;
        eval_net.for_each_qconv(&mut |c| {
            let ci = &convs[k];
            k += 1;
            let y = t.span(&format!("models.{}.fwd", ci.name), || {
                c.forward(&ctx, &ci.x, Mode::Eval)
            });
            ws.recycle(y);
        });
        let y = t.span("models.fc.fwd", || fc_eval.forward(&ctx, &x_fc, Mode::Eval));
        ws.recycle(y);
        let y = t.span("models.model_fwd", || {
            eval_net.forward(&ctx, &batch_x, Mode::Eval)
        });
        ws.recycle(y);

        for ((c, w), model) in convs.iter().zip(&weights).zip(models.iter_mut()) {
            conv_phases(t, &ctx, quantizer.as_ref(), c, w, model.as_mut(), seed);
        }
        fc_phases(
            t,
            &ctx,
            quantizer.as_ref(),
            &x_fc,
            &w_fc,
            fc_model.as_mut(),
            seed,
        );

        let tws = f32_ctx.workspace();
        let mut k = 0;
        train_net.for_each_qconv(&mut |c| {
            let ci = &convs[k];
            k += 1;
            let y = c.forward(&f32_ctx, &ci.x, Mode::Train);
            let gy = Tensor::full(y.dims(), 1e-3);
            let gx = t.span(&format!("models.{}.bwd", ci.name), || {
                c.backward(&f32_ctx, &gy)
            });
            tws.recycle(y);
            tws.recycle(gx);
        });
        let y = fc_train.forward(&f32_ctx, &x_fc, Mode::Train);
        let gy = Tensor::full(y.dims(), 1e-3);
        black_box(t.span("models.fc.bwd", || fc_train.backward(&f32_ctx, &gy)));
        let logits = train_net.forward(&f32_ctx, &batch_x, Mode::Train);
        let (_, grad) = t.span("nn.loss", || softmax_cross_entropy(&logits, &labels));
        black_box(train_net.backward(&f32_ctx, &grad));
        t.span("nn.sgd_step", || opt.step(&mut train_net));

        replica.set_request_noise_seeds(Some(Arc::clone(&seeds1)));
        black_box(t.span("serve.forward_b1", || {
            replica.forward(&f32_ctx, &x1, Mode::Eval)
        }));
        replica.set_request_noise_seeds(Some(Arc::clone(&seeds8)));
        black_box(t.span("serve.forward_b8", || {
            replica.forward(&f32_ctx, &x8, Mode::Eval)
        }));
        t.end();
    }

    // Steady-state workspace behaviour of the sweep's forward, which
    // keeps its logits.
    let before = ws.fresh_allocs();
    for _ in 0..WS_FORWARDS {
        black_box(eval_net.forward(&ctx, &batch_x, Mode::Eval));
    }
    let fresh = (ws.fresh_allocs() - before) as f64 / WS_FORWARDS as f64;
    let mut layers: Vec<String> = convs.into_iter().map(|c| c.name).collect();
    layers.push("fc".to_string());
    (layers, fresh)
}

#[cfg(test)]
mod tests {
    use super::input_side;

    #[test]
    fn input_sides_follow_the_resnet_mini_strides() {
        let sides: Vec<usize> = [
            "stem",
            "s1.b0.conv1",
            "s1.b0.conv2",
            "s2.b0.conv1",
            "s2.b0.conv2",
            "s2.b0.down",
            "s3.b0.conv1",
            "s3.b0.conv2",
            "s3.b0.down",
        ]
        .iter()
        .map(|n| input_side(n, 16))
        .collect();
        assert_eq!(sides, [16, 16, 16, 16, 8, 16, 8, 4, 8]);
    }
}
