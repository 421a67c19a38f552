//! Functional cores shared between the plain layers here and the
//! quantized/AMS layers in `ams-models`.
//!
//! [`conv2d_forward`] / [`conv2d_backward`] and [`linear_forward`] /
//! [`linear_backward`] operate on explicit weight matrices, so a caller can
//! substitute a *quantized* weight for the stored full-precision one — the
//! straight-through-estimator trick: the backward pass computes gradients
//! with respect to the weight that was actually used, and the caller routes
//! them to the shadow full-precision parameter.

use ams_tensor::{
    code_im2row_i16_in, code_rows_i16_in, conv_input_grad_in, conv_weight_grad_in, mat_to_nchw_in,
    matmul_a_bt_in, matmul_at_b_in, matmul_i8_panels_in, matmul_in, pack_rows_i16, ConvGeom,
    Density, ExecCtx, Im2colPanel, PackedLhs, Tensor, Workspace,
};

/// Cache produced by [`conv2d_forward`], consumed by [`conv2d_backward`]:
/// the forward's input and weights, from which the backward re-lowers one
/// image at a time. A caller that owns both tensors (the quantized layers
/// own their quantized input and weights) can build it by moving them in.
#[derive(Debug, Clone)]
pub struct ConvCache {
    /// The input the forward convolved, `(N, C_in, H, W)`.
    pub input: Tensor,
    /// Geometry of the convolution.
    pub geom: ConvGeom,
    /// The weight matrix actually used in the forward pass,
    /// `(C_out, C_in·K·K)` (may be a quantized version of the stored
    /// parameter).
    pub weight_mat: Tensor,
}

/// Convolution forward pass.
///
/// `weight_mat` is `(C_out, C_in·K_h·K_w)`; `weight_density` is the
/// caller's knowledge of its zero fraction (quantized layers measure it
/// once at quantize time; ad-hoc callers pass [`Density::Sample`]);
/// `bias`, when present, is a length-`C_out` slice added per output
/// channel. Returns the `(N, C_out, OH, OW)` output and, when
/// `want_cache` is set, the cache for the backward pass.
///
/// No column matrix is built: the weights are packed into GEMM bands
/// once, and each image is lowered straight into the GEMM's rhs panel
/// ([`Im2colPanel`]) and multiplied into its own `(C_out, OH·OW)` block
/// of the output, which already is that image's NCHW slice. Images are
/// split across the context's workers. Every output element is one
/// ascending-k chain plus bias, the one the batch product
/// `W · im2col(input)` computes, so the result is the same bit for bit
/// at any thread count. With `want_cache` set (training) the cache keeps
/// pooled copies of `input` and `weight_mat`, not the column matrix.
///
/// All intermediates (and the output) are drawn from the context's
/// workspace and recycled back into it, so steady-state forwards
/// allocate nothing.
///
/// # Panics
///
/// Panics on any shape disagreement between `input`, `weight_mat` and the
/// geometry.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_forward(
    ctx: &ExecCtx,
    input: &Tensor,
    weight_mat: &Tensor,
    weight_density: Density,
    bias: Option<&[f32]>,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    want_cache: bool,
) -> (Tensor, Option<ConvCache>) {
    let (n, c_in, h, w) = input.dims4();
    let geom = ConvGeom::new(n, c_in, h, w, kh, kw, stride, pad);
    assert_eq!(
        weight_mat.rank(),
        2,
        "conv2d_forward: weight matrix must be 2-D"
    );
    let c_out = weight_mat.dims()[0];
    assert_eq!(
        weight_mat.dims()[1],
        geom.rows(),
        "conv2d_forward: weight inner dim {} != C_in*K*K = {}",
        weight_mat.dims()[1],
        geom.rows()
    );
    if let Some(b) = bias {
        assert_eq!(b.len(), c_out, "conv2d_forward: bias length != C_out");
    }
    let ws = ctx.workspace();
    let y = conv2d_per_image(ctx, input, weight_mat, weight_density, bias, &geom);
    let cache = want_cache.then(|| ConvCache {
        input: ws.clone_tensor(input),
        geom,
        weight_mat: ws.clone_tensor(weight_mat),
    });
    (y, cache)
}

/// Adds `bias[c]` to the `c`-th `len`-element run of `out`.
fn add_bias(out: &mut [f32], bias: &[f32], len: usize) {
    if len == 0 {
        return;
    }
    for (run, &bv) in out.chunks_exact_mut(len).zip(bias) {
        for v in run {
            *v += bv;
        }
    }
}

/// The body of [`conv2d_forward`]: weights packed once, then one
/// [`for_each_span`](ExecCtx::for_each_span) over images, each worker
/// lowering and multiplying the images it owns.
fn conv2d_per_image(
    ctx: &ExecCtx,
    input: &Tensor,
    weight_mat: &Tensor,
    weight_density: Density,
    bias: Option<&[f32]>,
    geom: &ConvGeom,
) -> Tensor {
    let ws = ctx.workspace();
    let c_out = weight_mat.dims()[0];
    let mut y = ws.take_tensor(&[geom.n, c_out, geom.oh, geom.ow]);
    if y.is_empty() {
        return y;
    }
    let lhs = PackedLhs::pack_in(ws, weight_mat, weight_density);
    let out_len = c_out * geom.oh * geom.ow;
    let src = input.data();
    ctx.for_each_span(
        y.data_mut(),
        out_len,
        out_len * geom.rows(),
        |first, span| forward_images(ws, &lhs, geom, bias, src, first, span),
    );
    lhs.recycle(ws);
    y
}

/// One worker's images of [`conv2d_per_image`]: `out` holds the NCHW outputs
/// of images `first..`, each lowered into the worker's own pooled panel
/// and multiplied straight into its output block.
fn forward_images(
    ws: &Workspace,
    lhs: &PackedLhs,
    geom: &ConvGeom,
    bias: Option<&[f32]>,
    src: &[f32],
    first: usize,
    out: &mut [f32],
) {
    let pixels = geom.oh * geom.ow;
    let image_len = geom.c_in * geom.h * geom.w;
    let mut lowering = Im2colPanel::take(ws, geom);
    for (i, y) in out.chunks_exact_mut(lhs.rows() * pixels).enumerate() {
        let image = &src[(first + i) * image_len..(first + i + 1) * image_len];
        lhs.gemm_into(lowering.lower(image), pixels, y);
        if let Some(b) = bias {
            add_bias(y, b, pixels);
        }
    }
    lowering.recycle(ws);
}

/// Eval-only convolution forward on the packed integer fast path.
///
/// `w_codes` are symmetric-i8 weight codes in `(C_out, C_in·K_h·K_w)`
/// layout with dequantization scale `w_scale` (see
/// `ams_quant::Quantizer::quantize_weights_i8_in`). The input is coded
/// onto the same grid once and its codes lowered straight into the
/// GEMM's rhs panel ([`code_im2row_i16_in`] — bit-identical to coding the
/// im2col'd activations), and the combined scale is folded into the
/// integer GEMM's epilogue — no f32 copy of the weights or of the lowered
/// input is ever materialized. `w_sparse` routes the kernel's
/// zero-skipping dot (weights are the GEMM lhs). Both panels come from
/// the context's workspace.
///
/// There is no cache variant: the integer path is for inference, training
/// always runs the f32 kernels.
///
/// # Panics
///
/// Panics on any shape disagreement between `input`, `w_codes` and the
/// geometry.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_forward_i8(
    ctx: &ExecCtx,
    input: &Tensor,
    w_codes: &[i8],
    w_scale: f32,
    w_sparse: bool,
    bias: Option<&[f32]>,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    c_out: usize,
) -> Tensor {
    let (n, c_in, h, w) = input.dims4();
    let geom = ConvGeom::new(n, c_in, h, w, kh, kw, stride, pad);
    assert_eq!(
        w_codes.len(),
        c_out * geom.rows(),
        "conv2d_forward_i8: weight codes length {} != C_out*C_in*K*K = {}",
        w_codes.len(),
        c_out * geom.rows()
    );
    let ws = ctx.workspace();
    let (apanel, ascale) = code_im2row_i16_in(ctx, input, &geom);
    let mut wpanel = ws.take_panel_i16(w_codes.len());
    pack_rows_i16(w_codes, &mut wpanel);
    let mut ymat = matmul_i8_panels_in(
        ctx,
        c_out,
        geom.rows(),
        geom.cols(),
        &wpanel,
        &apanel,
        w_scale * ascale,
        None,
        w_sparse,
    );
    ws.recycle_panel_i16(wpanel);
    ws.recycle_panel_i16(apanel);
    if let Some(b) = bias {
        assert_eq!(b.len(), c_out, "conv2d_forward_i8: bias length != C_out");
        add_bias(ymat.data_mut(), b, geom.cols());
    }
    let y = mat_to_nchw_in(ctx, &ymat, &geom, c_out);
    ws.recycle(ymat);
    y
}

/// Gradients of a convolution computed by [`conv2d_forward`].
///
/// Returns `(d_input, d_weight_mat, d_bias)` where `d_weight_mat` has the
/// weight-matrix shape `(C_out, C_in·K·K)` and `d_bias` is per output
/// channel.
///
/// Works one image at a time on the cached input, never on the batch's
/// column matrix: [`conv_input_grad_in`] scatters each image's `Wᵀ·dY`
/// through col2im, [`conv_weight_grad_in`] lowers each image into the
/// weight-gradient GEMM and continues every element's chain across the
/// images in order, and the bias gradient sums each channel over the
/// images in order. Each result equals, bit for bit and at any thread
/// count, the batch form `col2im(Wᵀ·dY)`, `dY·im2col(x)ᵀ` and the
/// per-channel `Iterator::sum` over `dY` as a `(C_out, N·OH·OW)` matrix.
///
/// # Panics
///
/// Panics if `grad_output` disagrees with the cached geometry.
pub fn conv2d_backward(
    ctx: &ExecCtx,
    cache: &ConvCache,
    grad_output: &Tensor,
) -> (Tensor, Tensor, Vec<f32>) {
    let geom = &cache.geom;
    let dinput = conv_input_grad_in(ctx, &cache.weight_mat, grad_output, geom);
    let dweight = conv_weight_grad_in(ctx, &cache.input, grad_output, geom);
    let c_out = dweight.dims()[0];
    let plane = geom.oh * geom.ow;
    let dy = grad_output.data();
    let dbias = (0..c_out)
        .map(|co| {
            (0..geom.n)
                .flat_map(|i| &dy[(i * c_out + co) * plane..(i * c_out + co + 1) * plane])
                .sum()
        })
        .collect();
    (dinput, dweight, dbias)
}

/// Cache produced by [`linear_forward`], consumed by [`linear_backward`].
#[derive(Debug, Clone)]
pub struct LinearCache {
    /// The input batch `(N, in_features)`.
    pub input: Tensor,
    /// The weight actually used, `(out_features, in_features)`.
    pub weight: Tensor,
}

/// Fully-connected forward pass: `y = x · Wᵀ + b`.
///
/// `input` is `(N, in_features)`, `weight` is `(out, in)`. Returns the
/// `(N, out)` output and, when `want_cache` is set, the backward cache.
///
/// # Panics
///
/// Panics on shape disagreement.
pub fn linear_forward(
    ctx: &ExecCtx,
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    want_cache: bool,
) -> (Tensor, Option<LinearCache>) {
    assert_eq!(input.rank(), 2, "linear_forward: input must be 2-D");
    assert_eq!(weight.rank(), 2, "linear_forward: weight must be 2-D");
    assert_eq!(
        input.dims()[1],
        weight.dims()[1],
        "linear_forward: in_features disagree ({} vs {})",
        input.dims()[1],
        weight.dims()[1]
    );
    let mut y = matmul_a_bt_in(ctx, input, weight);
    if let Some(b) = bias {
        let out = weight.dims()[0];
        assert_eq!(b.len(), out, "linear_forward: bias length != out_features");
        let n = input.dims()[0];
        let yd = y.data_mut();
        for r in 0..n {
            for (j, &bv) in b.iter().enumerate() {
                yd[r * out + j] += bv;
            }
        }
    }
    let cache = want_cache.then(|| LinearCache {
        input: ctx.workspace().clone_tensor(input),
        weight: ctx.workspace().clone_tensor(weight),
    });
    (y, cache)
}

/// Eval-only fully-connected forward on the packed integer fast path:
/// `y = (s · x̂·Ŵᵀ) + b` without materializing `Wᵀ` or an f32 copy of the
/// weights.
///
/// `w_codes` are symmetric-i8 weight codes in `(out_features,
/// in_features)` row-major layout with dequantization scale `w_scale`;
/// the input batch is coded onto the same grid straight into the GEMM's
/// lhs panel ([`code_rows_i16_in`]) and the bias (the paper keeps it
/// digital/full-precision) is fused into the integer GEMM's epilogue.
/// Both panels come from the context's workspace.
///
/// # Panics
///
/// Panics on shape disagreement.
pub fn linear_forward_i8(
    ctx: &ExecCtx,
    input: &Tensor,
    w_codes: &[i8],
    w_scale: f32,
    bias: Option<&[f32]>,
    out_features: usize,
) -> Tensor {
    assert_eq!(input.rank(), 2, "linear_forward_i8: input must be 2-D");
    let (n, in_features) = (input.dims()[0], input.dims()[1]);
    assert_eq!(
        w_codes.len(),
        out_features * in_features,
        "linear_forward_i8: weight codes length {} != out*in = {}",
        w_codes.len(),
        out_features * in_features
    );
    let ws = ctx.workspace();
    let (apanel, ascale) = code_rows_i16_in(ws, input.data());
    let mut wpanel = ws.take_panel_i16(w_codes.len());
    pack_rows_i16(w_codes, &mut wpanel);
    let y = matmul_i8_panels_in(
        ctx,
        n,
        in_features,
        out_features,
        &apanel,
        &wpanel,
        ascale * w_scale,
        bias,
        false,
    );
    ws.recycle_panel_i16(apanel);
    ws.recycle_panel_i16(wpanel);
    y
}

/// Gradients of a fully-connected layer.
///
/// Returns `(d_input, d_weight, d_bias)`.
///
/// # Panics
///
/// Panics if `grad_output` disagrees with the cached shapes.
pub fn linear_backward(
    ctx: &ExecCtx,
    cache: &LinearCache,
    grad_output: &Tensor,
) -> (Tensor, Tensor, Vec<f32>) {
    // y = x Wᵀ  ⇒  dx = dy W ; dW = dyᵀ x ; db = column sums of dy.
    let dinput = matmul_in(ctx, grad_output, &cache.weight);
    let dweight = matmul_at_b_in(ctx, grad_output, &cache.input);
    let (n, out) = (grad_output.dims()[0], grad_output.dims()[1]);
    let mut dbias = vec![0.0f32; out];
    for r in 0..n {
        for (j, db) in dbias.iter_mut().enumerate() {
            *db += grad_output.data()[r * out + j];
        }
    }
    (dinput, dweight, dbias)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_tensor::{quantize_symmetric_i8, rng};

    static CTX: ExecCtx = ExecCtx::serial();

    #[test]
    fn linear_forward_matches_manual() {
        let x = Tensor::from_vec(&[1, 2], vec![2.0, 3.0]).unwrap();
        let w = Tensor::from_vec(&[2, 2], vec![1.0, 0.0, 0.5, 0.5]).unwrap();
        let (y, _) = linear_forward(&CTX, &x, &w, Some(&[0.1, -0.1]), false);
        assert_eq!(y.dims(), &[1, 2]);
        assert!((y.data()[0] - 2.1).abs() < 1e-6);
        assert!((y.data()[1] - 2.4).abs() < 1e-6);
    }

    #[test]
    fn linear_gradcheck() {
        let mut r = rng::seeded(3);
        let mut x = Tensor::zeros(&[3, 4]);
        rng::fill_normal(&mut x, 0.0, 1.0, &mut r);
        let mut w = Tensor::zeros(&[2, 4]);
        rng::fill_normal(&mut w, 0.0, 1.0, &mut r);
        let b = vec![0.3f32, -0.2];

        // Loss = sum(y²)/2 so dL/dy = y.
        let loss = |w_: &Tensor, x_: &Tensor| -> f32 {
            let (y, _) = linear_forward(&CTX, x_, w_, Some(&b), false);
            0.5 * y.data().iter().map(|v| v * v).sum::<f32>()
        };
        let (y, cache) = linear_forward(&CTX, &x, &w, Some(&b), true);
        let (dx, dw, _db) = linear_backward(&CTX, cache.as_ref().unwrap(), &y);

        let eps = 1e-3;
        for i in [0usize, 3, 7] {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let mut wm = w.clone();
            wm.data_mut()[i] -= eps;
            let num = (loss(&wp, &x) - loss(&wm, &x)) / (2.0 * eps);
            let ana = dw.data()[i];
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + ana.abs()),
                "dw[{i}]: {num} vs {ana}"
            );
        }
        for i in [0usize, 5, 11] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(&w, &xp) - loss(&w, &xm)) / (2.0 * eps);
            let ana = dx.data()[i];
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + ana.abs()),
                "dx[{i}]: {num} vs {ana}"
            );
        }
    }

    #[test]
    fn conv_gradcheck() {
        let mut r = rng::seeded(4);
        let mut x = Tensor::zeros(&[2, 2, 5, 5]);
        rng::fill_normal(&mut x, 0.0, 1.0, &mut r);
        let mut wmat = Tensor::zeros(&[3, 2 * 3 * 3]);
        rng::fill_normal(&mut wmat, 0.0, 0.5, &mut r);
        let bias = vec![0.1f32, -0.1, 0.05];

        let loss = |w_: &Tensor, x_: &Tensor| -> f32 {
            let (y, _) = conv2d_forward(
                &CTX,
                x_,
                w_,
                Density::Sample,
                Some(&bias),
                3,
                3,
                2,
                1,
                false,
            );
            0.5 * y.data().iter().map(|v| v * v).sum::<f32>()
        };
        let (y, cache) = conv2d_forward(
            &CTX,
            &x,
            &wmat,
            Density::Sample,
            Some(&bias),
            3,
            3,
            2,
            1,
            true,
        );
        let (dx, dw, db) = conv2d_backward(&CTX, cache.as_ref().unwrap(), &y);

        let eps = 1e-2;
        for i in [0usize, 10, 40] {
            let mut wp = wmat.clone();
            wp.data_mut()[i] += eps;
            let mut wm = wmat.clone();
            wm.data_mut()[i] -= eps;
            let num = (loss(&wp, &x) - loss(&wm, &x)) / (2.0 * eps);
            let ana = dw.data()[i];
            assert!(
                (num - ana).abs() < 5e-2 * (1.0 + ana.abs()),
                "dw[{i}]: {num} vs {ana}"
            );
        }
        for i in [0usize, 33, 77] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(&wmat, &xp) - loss(&wmat, &xm)) / (2.0 * eps);
            let ana = dx.data()[i];
            assert!(
                (num - ana).abs() < 5e-2 * (1.0 + ana.abs()),
                "dx[{i}]: {num} vs {ana}"
            );
        }
        // Bias gradient equals the sum of dy per channel; sanity only.
        assert_eq!(db.len(), 3);
    }

    /// The statistical acceptance bound for one i8-path output element
    /// against the f32 path (see `matmul_i8` module docs): re-coding each
    /// operand onto the 127-level grid perturbs every one of the `k`
    /// products by at most `max|a|·s_w/2 + max|w|·s_a/2 + s_a·s_w/4`.
    fn i8_bound(k: usize, max_a: f32, max_w: f32) -> f32 {
        let (sa, sw) = (max_a / 127.0, max_w / 127.0);
        k as f32 * (max_a * sw * 0.5 + max_w * sa * 0.5 + sa * sw * 0.25) + 1e-4
    }

    #[test]
    fn conv_i8_matches_f32_within_the_quantization_bound() {
        let mut r = rng::seeded(9);
        let mut x = Tensor::zeros(&[2, 3, 8, 8]);
        rng::fill_uniform(&mut x, 0.0, 1.0, &mut r);
        let mut wmat = Tensor::zeros(&[4, 27]);
        rng::fill_uniform(&mut wmat, -1.0, 1.0, &mut r);
        let bias = [0.2f32, -0.1, 0.0, 0.4];
        let (want, _) = conv2d_forward(
            &CTX,
            &x,
            &wmat,
            Density::Sample,
            Some(&bias),
            3,
            3,
            1,
            1,
            false,
        );
        let (wc, wscale) = quantize_symmetric_i8(wmat.data());
        let got = conv2d_forward_i8(&CTX, &x, &wc, wscale, false, Some(&bias), 3, 3, 1, 1, 4);
        assert_eq!(got.dims(), want.dims());
        let bound = i8_bound(27, x.max_abs(), wmat.max_abs());
        for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            assert!(
                (g - w).abs() <= bound,
                "elem {i}: i8 {g} vs f32 {w}, bound {bound}"
            );
        }
    }

    #[test]
    fn linear_i8_matches_f32_within_the_quantization_bound() {
        let mut r = rng::seeded(10);
        let mut x = Tensor::zeros(&[3, 16]);
        rng::fill_uniform(&mut x, 0.0, 1.0, &mut r);
        let mut w = Tensor::zeros(&[5, 16]);
        rng::fill_uniform(&mut w, -1.0, 1.0, &mut r);
        let bias: Vec<f32> = (0..5).map(|i| i as f32 * 0.1).collect();
        let (want, _) = linear_forward(&CTX, &x, &w, Some(&bias), false);
        let (wc, wscale) = quantize_symmetric_i8(w.data());
        let got = linear_forward_i8(&CTX, &x, &wc, wscale, Some(&bias), 5);
        assert_eq!(got.dims(), want.dims());
        let bound = i8_bound(16, x.max_abs(), w.max_abs());
        for (g, v) in got.data().iter().zip(want.data()) {
            assert!((g - v).abs() <= bound, "i8 {g} vs f32 {v}, bound {bound}");
        }
    }

    #[test]
    fn conv_bias_shifts_every_output() {
        let x = Tensor::zeros(&[1, 1, 3, 3]);
        let w = Tensor::zeros(&[2, 9]);
        let (y, _) = conv2d_forward(
            &CTX,
            &x,
            &w,
            Density::Sample,
            Some(&[1.5, -2.0]),
            3,
            3,
            1,
            1,
            false,
        );
        let (_, c, oh, ow) = y.dims4();
        assert_eq!((c, oh, ow), (2, 3, 3));
        assert!(y.data()[..9].iter().all(|&v| v == 1.5));
        assert!(y.data()[9..].iter().all(|&v| v == -2.0));
    }
}
