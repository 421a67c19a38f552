//! Quantized convolution with AMS error injection (paper Fig. 3).

use std::ops::{Deref, DerefMut};

use ams_core::vmac_sim::VmacSimulator;
use ams_nn::functional::{conv2d_backward, conv2d_forward, conv2d_forward_i8, ConvCache};
use ams_nn::{Layer, Mode, Param};
use ams_quant::QuantizedI8;
use ams_tensor::{im2col_in, mat_to_nchw_in, rng, ConvGeom, Density, ExecCtx, Tensor, Workspace};
use rand::Rng;

use crate::analog::{AnalogGemm, GemmGeometry};
use crate::config::{HardwareConfig, InputKind};

/// A convolution implementing the paper's quantized layer (Fig. 3): an
/// [`AnalogGemm`] over the im2col-lowered input. Input activations are
/// quantized to `B_X` bits, shadow FP32 weights DoReFa-quantized to `B_W`
/// bits (every training forward; eval reads the frozen eval weights), and
/// the AMS error of Eq. 2 added to the output — forward pass only,
/// backward untouched. The core's setters and getters are reached through
/// `Deref`.
///
/// With [`HardwareConfig::fp32`] the layer degenerates to an exact plain
/// convolution, so the same type serves the FP32 baseline and both
/// hardware variants (weights transfer by name through checkpoints).
///
/// # Example
///
/// ```
/// use ams_models::{HardwareConfig, InputKind, QConv2d};
/// use ams_nn::{Layer, Mode};
/// use ams_tensor::{rng, ExecCtx, Tensor};
///
/// let mut r = rng::seeded(0);
/// let hw = HardwareConfig::fp32();
/// let mut conv = QConv2d::new("stem", 3, 8, 3, 1, 1, &hw, InputKind::SignedRescaled, 0, &mut r);
/// let y = conv.forward(&ExecCtx::serial(), &Tensor::zeros(&[1, 3, 8, 8]), Mode::Eval);
/// assert_eq!(y.dims(), &[1, 8, 8, 8]);
/// ```
#[derive(Debug)]
pub struct QConv2d {
    core: AnalogGemm,
    shape: ConvShape,
    cache: Option<ConvCache>,
}

/// How a convolution lowers onto the analog GEMM: im2col with this
/// kernel, stride and padding against the `[c_out, c_in·k²]` weights.
#[derive(Debug, Clone, Copy)]
struct ConvShape {
    c_out: usize,
    k: usize,
    stride: usize,
    pad: usize,
}

impl QConv2d {
    /// Creates a quantized convolution (no bias — a batch-norm layer
    /// always follows in the paper's networks).
    ///
    /// `layer_index` decorrelates this layer's noise stream from its
    /// siblings under the shared [`HardwareConfig::noise_seed`].
    ///
    /// # Panics
    ///
    /// Panics if any of `c_in`, `c_out`, `k`, `stride` is zero.
    #[allow(clippy::too_many_arguments)]
    pub fn new<R: Rng + ?Sized>(
        name: impl Into<String>,
        c_in: usize,
        c_out: usize,
        k: usize,
        stride: usize,
        pad: usize,
        hw: &HardwareConfig,
        input_kind: InputKind,
        layer_index: u64,
        init_rng: &mut R,
    ) -> Self {
        assert!(
            c_in > 0 && c_out > 0 && k > 0 && stride > 0,
            "QConv2d: zero-sized configuration"
        );
        let name = name.into();
        let mut w = Tensor::zeros(&[c_out, c_in, k, k]);
        rng::fill_kaiming(&mut w, c_in * k * k, init_rng);
        let weight = Param::new(format!("{name}.weight"), w);
        QConv2d {
            core: AnalogGemm::new(name, weight, hw, input_kind, layer_index, false),
            shape: ConvShape {
                c_out,
                k,
                stride,
                pad,
            },
            cache: None,
        }
    }
}

impl Deref for QConv2d {
    type Target = AnalogGemm;

    fn deref(&self) -> &AnalogGemm {
        &self.core
    }
}

impl DerefMut for QConv2d {
    fn deref_mut(&mut self) -> &mut AnalogGemm {
        &mut self.core
    }
}

impl ConvShape {
    /// The im2col geometry of this convolution over `x`.
    fn geom(&self, x: &Tensor) -> ConvGeom {
        let (n, c_in, h, w) = x.dims4();
        ConvGeom::new(n, c_in, h, w, self.k, self.k, self.stride, self.pad)
    }
}

impl GemmGeometry for ConvShape {
    type Cache = ConvCache;

    fn forward_f32(&self, ctx: &ExecCtx, xq: &Tensor, wmat: &Tensor, density: Density) -> Tensor {
        conv2d_forward(ctx, xq, wmat, density, &self.geom(xq))
    }

    fn forward_train(
        &self,
        ctx: &ExecCtx,
        xq: Tensor,
        wmat: Tensor,
        density: Density,
    ) -> (Tensor, ConvCache) {
        let geom = self.geom(&xq);
        let y = conv2d_forward(ctx, &xq, &wmat, density, &geom);
        let cache = ConvCache {
            input: xq,
            geom,
            weight_mat: wmat,
        };
        (y, cache)
    }

    fn forward_i8(&self, ctx: &ExecCtx, xq: &Tensor, w: &QuantizedI8) -> Tensor {
        let geom = self.geom(xq);
        conv2d_forward_i8(ctx, xq, &w.codes, w.scale, w.sparse, &geom, self.c_out)
    }

    /// Lowers the convolution and converts each output channel's chunks
    /// in f32, one chunk of work per channel.
    fn forward_per_vmac(
        &self,
        ctx: &ExecCtx,
        xq: &Tensor,
        wmat: &Tensor,
        sim: &VmacSimulator,
    ) -> Tensor {
        let ws = ctx.workspace();
        let geom = self.geom(xq);
        let cols = im2col_in(ctx, xq, &geom);
        let (rows, ncols) = (geom.rows(), geom.cols());
        let n_mult = sim.vmac().n_mult;
        let n_chunks = rows.div_ceil(n_mult);
        let wd = wmat.data();
        let cd = cols.data();
        let mut ymat = ws.take_tensor(&[self.c_out, ncols]);
        // Each output channel's row is independent, so the chunked-ADC
        // simulation parallelizes over `c_out` (one chunk per channel).
        ctx.for_each_chunk(ymat.data_mut(), ncols, rows * ncols, |co, yrow| {
            let wrow = &wd[co * rows..(co + 1) * rows];
            let mut acc = vec![0.0f64; ncols];
            // ΔΣ error memory, carried per output element across the
            // successive conversions of its partial sums.
            let mut feedback = vec![0.0f64; ncols];
            let mut chunk_start = 0;
            let mut k = 0;
            while chunk_start < rows {
                let chunk_end = (chunk_start + n_mult).min(rows);
                for a in acc.iter_mut() {
                    *a = 0.0;
                }
                for r in chunk_start..chunk_end {
                    let wv = f64::from(wrow[r]);
                    if wv == 0.0 {
                        continue;
                    }
                    let crow = &cd[r * ncols..(r + 1) * ncols];
                    for (a, &cv) in acc.iter_mut().zip(crow) {
                        *a += wv * f64::from(cv);
                    }
                }
                for ((yv, &a), fb) in yrow.iter_mut().zip(acc.iter()).zip(feedback.iter_mut()) {
                    *yv += sim.convert_partial(a, k, n_chunks, fb) as f32;
                }
                chunk_start = chunk_end;
                k += 1;
            }
        });
        let y = mat_to_nchw_in(ctx, &ymat, &geom, self.c_out);
        ws.recycle(ymat);
        ws.recycle(cols);
        y
    }

    fn retire(ws: &Workspace, cache: ConvCache) {
        ws.recycle(cache.input);
        ws.recycle(cache.weight_mat);
    }
}

impl Layer for QConv2d {
    fn forward(&mut self, ctx: &ExecCtx, input: &Tensor, mode: Mode) -> Tensor {
        self.core
            .forward(&self.shape, &mut self.cache, ctx, input, mode)
    }

    fn backward(&mut self, ctx: &ExecCtx, grad_output: &Tensor) -> Tensor {
        let cache = self
            .cache
            .as_ref()
            .expect("QConv2d::backward without a Train-mode forward");
        self.core
            .backward(ctx, || conv2d_backward(ctx, cache, grad_output))
    }

    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(self.core.weight_mut());
    }

    fn name(&self) -> &str {
        self.core.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_core::vmac::Vmac;
    use ams_quant::QuantConfig;
    use ams_tensor::{noise_stream_seed, KernelDispatch};

    fn input() -> Tensor {
        let mut t = Tensor::zeros(&[2, 3, 6, 6]);
        let mut r = rng::seeded(5);
        rng::fill_uniform(&mut t, 0.0, 1.0, &mut r);
        t
    }

    #[test]
    fn fp32_config_matches_plain_conv() {
        let mut r = rng::seeded(0);
        let hw = HardwareConfig::fp32();
        let mut qc = QConv2d::new("c", 3, 4, 3, 1, 1, &hw, InputKind::Unit, 0, &mut r);
        // Plain conv with the same weights.
        let x = input();
        let y = qc.forward(&ExecCtx::serial(), &x, Mode::Eval);
        let wmat = qc.weight().value.reshaped(&[4, 27]);
        let geom = ConvGeom::new(2, 3, 6, 6, 3, 3, 1, 1);
        let want = conv2d_forward(&ExecCtx::serial(), &x, &wmat, Density::Sample, &geom);
        assert_eq!(y, want);
    }

    #[test]
    fn quantization_bounds_weights() {
        let mut r = rng::seeded(1);
        let hw = HardwareConfig::quantized(QuantConfig::w6a4());
        let mut qc = QConv2d::new("c", 3, 4, 3, 1, 1, &hw, InputKind::Unit, 0, &mut r);
        let y1 = qc.forward(&ExecCtx::serial(), &input(), Mode::Eval);
        // The effective weights are bounded by 1 so |y| ≤ N_tot.
        assert!(y1.max_abs() <= qc.n_tot() as f32);
    }

    #[test]
    fn eval_injection_adds_noise_with_model_sigma() {
        let mut r = rng::seeded(2);
        let vmac = Vmac::new(8, 8, 8, 8.0);
        let quiet = HardwareConfig::quantized(QuantConfig::w8a8());
        let noisy = HardwareConfig::ams(QuantConfig::w8a8(), vmac);
        let mut a = QConv2d::new("c", 3, 8, 3, 1, 1, &quiet, InputKind::Unit, 0, &mut r);
        let mut r2 = rng::seeded(2); // identical init
        let mut b = QConv2d::new("c", 3, 8, 3, 1, 1, &noisy, InputKind::Unit, 0, &mut r2);
        let x = input();
        let clean = a.forward(&ExecCtx::serial(), &x, Mode::Eval);
        let dirty = b.forward(&ExecCtx::serial(), &x, Mode::Eval);
        let diff = dirty.sub(&clean);
        let sigma = b.error_sigma().unwrap();
        let measured =
            (diff.data().iter().map(|&v| (v * v) as f64).sum::<f64>() / diff.len() as f64).sqrt();
        assert!(
            (measured / f64::from(sigma) - 1.0).abs() < 0.1,
            "measured {measured} vs model {sigma}"
        );
    }

    #[test]
    fn train_mode_respects_injection_flags() {
        let mut r = rng::seeded(3);
        let vmac = Vmac::new(8, 8, 8, 9.0);
        let hw = HardwareConfig::ams_eval_only(QuantConfig::w8a8(), vmac);
        let mut qc = QConv2d::new("c", 3, 4, 3, 1, 1, &hw, InputKind::Unit, 0, &mut r);
        let x = input();
        let y_train = qc.forward(&ExecCtx::serial(), &x, Mode::Train);
        // Re-forward in train mode: deterministic (no injection).
        let y_train2 = qc.forward(&ExecCtx::serial(), &x, Mode::Train);
        assert_eq!(y_train, y_train2);
        // Eval injects: differs from the train output.
        let y_eval = qc.forward(&ExecCtx::serial(), &x, Mode::Eval);
        assert_ne!(y_train, y_eval);
    }

    #[test]
    fn backward_routes_through_ste() {
        let mut r = rng::seeded(4);
        let hw = HardwareConfig::quantized(QuantConfig::w8a8());
        let mut qc = QConv2d::new("c", 3, 4, 3, 1, 1, &hw, InputKind::Unit, 0, &mut r);
        let x = input();
        let y = qc.forward(&ExecCtx::serial(), &x, Mode::Train);
        let dx = qc.backward(&ExecCtx::serial(), &Tensor::ones(y.dims()));
        assert_eq!(dx.dims(), x.dims());
        assert!(
            qc.weight().grad.max_abs() > 0.0,
            "gradient must reach the shadow weight"
        );
    }

    #[test]
    fn signed_input_backward_scales_by_two() {
        let mut r = rng::seeded(6);
        let hw = HardwareConfig::fp32();
        let mut unit = QConv2d::new("c", 3, 4, 3, 1, 1, &hw, InputKind::Unit, 0, &mut r);
        let mut r2 = rng::seeded(6);
        let mut signed = QConv2d::new(
            "c",
            3,
            4,
            3,
            1,
            1,
            &hw,
            InputKind::SignedRescaled,
            0,
            &mut r2,
        );
        let x = input();
        let dy = Tensor::ones(unit.forward(&ExecCtx::serial(), &x, Mode::Train).dims());
        let dx_unit = unit.backward(&ExecCtx::serial(), &dy);
        signed.forward(&ExecCtx::serial(), &x, Mode::Train);
        let dx_signed = signed.backward(&ExecCtx::serial(), &dy);
        for (u, s) in dx_unit.data().iter().zip(dx_signed.data()) {
            assert!((2.0 * u - s).abs() < 1e-5);
        }
    }

    #[test]
    fn probe_accumulates_output_mean() {
        let mut r = rng::seeded(7);
        let hw = HardwareConfig::fp32();
        let mut qc = QConv2d::new("c", 3, 4, 3, 1, 1, &hw, InputKind::Unit, 0, &mut r);
        qc.set_probe(true);
        let x = input();
        let y = qc.forward(&ExecCtx::serial(), &x, Mode::Eval);
        let got = qc.probe_mean().unwrap();
        assert!((got - y.mean()).abs() < 1e-6);
        qc.set_probe(false);
        assert!(qc.probe_mean().is_none());
    }

    #[test]
    fn i8_kernel_stays_within_the_quantization_bound() {
        let mut r = rng::seeded(11);
        let hw = HardwareConfig::quantized(QuantConfig::w8a8());
        let mut qc = QConv2d::new("c", 3, 4, 3, 1, 1, &hw, InputKind::Unit, 0, &mut r);
        let x = input();
        let want = qc.forward(&ExecCtx::serial(), &x, Mode::Eval);
        let got = qc.forward(
            &ExecCtx::serial().with_kernel(KernelDispatch::I8),
            &x,
            Mode::Eval,
        );
        // DoReFa bounds: |w_q| ≤ 1, activations in [0, 1], so both i8
        // re-coding scales are at most 1/127 (see matmul_i8 module docs).
        let s = 1.0f32 / 127.0;
        let bound = qc.n_tot() as f32 * (s + s * s * 0.25) + 1e-4;
        for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            assert!(
                (g - w).abs() <= bound,
                "elem {i}: i8 {g} vs f32 {w}, bound {bound}"
            );
        }
    }

    #[test]
    fn i8_kernel_is_inert_in_train_mode_and_on_wide_configs() {
        let mut r = rng::seeded(12);
        let hw = HardwareConfig::quantized(QuantConfig::w8a8());
        let mut qc = QConv2d::new("c", 3, 4, 3, 1, 1, &hw, InputKind::Unit, 0, &mut r);
        let x = input();
        let i8ctx = ExecCtx::serial().with_kernel(KernelDispatch::I8);
        // Training always runs the f32 kernels (the i8 path has no
        // backward), so the same layer re-forwarded under the i8 context
        // must be bit-identical.
        let t1 = qc.forward(&ExecCtx::serial(), &x, Mode::Train);
        let t2 = qc.forward(&i8ctx, &x, Mode::Train);
        assert_eq!(t1, t2);
        // FP32 hardware (32-bit widths) fails the ≤8-bit gate: the i8
        // context must still produce the exact f32 result.
        let mut r2 = rng::seeded(12);
        let hw32 = HardwareConfig::fp32();
        let mut wide = QConv2d::new("c", 3, 4, 3, 1, 1, &hw32, InputKind::Unit, 0, &mut r2);
        let e1 = wide.forward(&ExecCtx::serial(), &x, Mode::Eval);
        let e2 = wide.forward(&i8ctx, &x, Mode::Eval);
        assert_eq!(e1, e2);
    }

    #[test]
    fn i8_kernel_defers_to_f32_under_weight_mismatch() {
        use ams_core::mismatch::MismatchModel;
        let mut r = rng::seeded(13);
        let hw = HardwareConfig::quantized(QuantConfig::w8a8())
            .with_mismatch(MismatchModel::new(0.05, 42));
        let mut qc = QConv2d::new("c", 3, 4, 3, 1, 1, &hw, InputKind::Unit, 0, &mut r);
        assert!(qc.error_model().perturbs_weights());
        let x = input();
        // Mismatch perturbs f32 weights, which the pre-coded integer path
        // cannot represent — the gate must fall back to the f32 kernels
        // and reproduce them exactly.
        let want = qc.forward(&ExecCtx::serial(), &x, Mode::Eval);
        let got = qc.forward(
            &ExecCtx::serial().with_kernel(KernelDispatch::I8),
            &x,
            Mode::Eval,
        );
        assert_eq!(got, want);
    }

    #[test]
    fn noise_streams_differ_per_layer() {
        assert_ne!(noise_stream_seed(1, 0), noise_stream_seed(1, 1));
        assert_ne!(noise_stream_seed(1, 0), noise_stream_seed(2, 0));
    }
}
