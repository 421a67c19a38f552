//! Quantized fully-connected layer with AMS error injection.

use std::ops::{Deref, DerefMut};

use ams_core::vmac_sim::VmacSimulator;
use ams_nn::functional::{linear_backward, linear_forward, linear_forward_i8, LinearCache};
use ams_nn::{Layer, Mode, Param};
use ams_quant::QuantizedI8;
use ams_tensor::{rng, Density, ExecCtx, Tensor, Workspace};
use rand::Rng;

use crate::analog::{AnalogGemm, GemmGeometry};
use crate::config::{HardwareConfig, InputKind};

/// A fully-connected layer with DoReFa weight/activation quantization and
/// AMS error injection — the classifier head of the paper's networks: an
/// [`AnalogGemm`] plus a digital bias. The core's setters and getters are
/// reached through `Deref`.
///
/// As the network's *last layer* it follows the paper's special rule
/// (§2): AMS error is injected at evaluation time but **not** during
/// training (injecting there "led to a loss of the network's ability to
/// learn"), unless [`HardwareConfig::inject_last_layer_train`] re-enables
/// it for the ablation. The bias is added digitally and stays
/// full-precision ("biases can be added digitally at little extra energy
/// cost").
///
/// # Example
///
/// ```
/// use ams_models::{HardwareConfig, QLinear};
/// use ams_nn::{Layer, Mode};
/// use ams_tensor::{rng, noise_stream_seed, ExecCtx, Tensor};
///
/// let mut r = rng::seeded(0);
/// let mut fc = QLinear::new("fc", 16, 10, &HardwareConfig::fp32(), true, 9, &mut r);
/// let y = fc.forward(&ExecCtx::serial(), &Tensor::zeros(&[4, 16]), Mode::Eval);
/// assert_eq!(y.dims(), &[4, 10]);
/// ```
#[derive(Debug)]
pub struct QLinear {
    core: AnalogGemm,
    bias: Param,
    cache: Option<LinearCache>,
}

/// How a fully-connected layer lowers onto the analog GEMM: `x · Wᵀ` plus
/// the digital, full-precision bias.
struct Dense<'a> {
    bias: &'a [f32],
}

impl QLinear {
    /// Creates a quantized fully-connected layer.
    ///
    /// Set `is_last` for the network's final classifier so the paper's
    /// last-layer training rule applies.
    ///
    /// # Panics
    ///
    /// Panics if either feature count is zero.
    pub fn new<R: Rng + ?Sized>(
        name: impl Into<String>,
        in_features: usize,
        out_features: usize,
        hw: &HardwareConfig,
        is_last: bool,
        layer_index: u64,
        init_rng: &mut R,
    ) -> Self {
        assert!(
            in_features > 0 && out_features > 0,
            "QLinear: zero-sized configuration"
        );
        let name = name.into();
        let mut w = Tensor::zeros(&[out_features, in_features]);
        rng::fill_xavier(&mut w, in_features, out_features, init_rng);
        let weight = Param::new(format!("{name}.weight"), w);
        let bias = Param::new_no_decay(format!("{name}.bias"), Tensor::zeros(&[out_features]));
        QLinear {
            core: AnalogGemm::new(name, weight, hw, InputKind::Unit, layer_index, is_last),
            bias,
            cache: None,
        }
    }
}

impl Deref for QLinear {
    type Target = AnalogGemm;

    fn deref(&self) -> &AnalogGemm {
        &self.core
    }
}

impl DerefMut for QLinear {
    fn deref_mut(&mut self) -> &mut AnalogGemm {
        &mut self.core
    }
}

impl GemmGeometry for Dense<'_> {
    type Cache = LinearCache;

    fn forward_f32(&self, ctx: &ExecCtx, xq: &Tensor, wmat: &Tensor, _density: Density) -> Tensor {
        linear_forward(ctx, xq, wmat, Some(self.bias), false).0
    }

    fn forward_train(
        &self,
        ctx: &ExecCtx,
        xq: Tensor,
        wmat: Tensor,
        density: Density,
    ) -> (Tensor, LinearCache) {
        let y = self.forward_f32(ctx, &xq, &wmat, density);
        let cache = LinearCache {
            input: xq,
            weight: wmat,
        };
        (y, cache)
    }

    fn forward_i8(&self, ctx: &ExecCtx, xq: &Tensor, w: &QuantizedI8) -> Tensor {
        linear_forward_i8(ctx, xq, &w.codes, w.scale, Some(self.bias), self.bias.len())
    }

    /// Each output is one simulated dot product ([`VmacSimulator::dot`]:
    /// chunks converted and accumulated in f64) plus the bias, added
    /// digitally. Each batch row is independent, so the
    /// simulation parallelizes over rows on the ExecCtx pool.
    fn forward_per_vmac(
        &self,
        ctx: &ExecCtx,
        xq: &Tensor,
        wmat: &Tensor,
        sim: &VmacSimulator,
    ) -> Tensor {
        let n = xq.dims()[0];
        let (wd, xd, bd) = (wmat.data(), xq.data(), self.bias);
        let (fin, fout) = (xq.dims()[1], self.bias.len());
        let mut y = Tensor::zeros(&[n, fout]);
        ctx.for_each_chunk(y.data_mut(), fout, n * fout, |row, yrow| {
            let xrow = &xd[row * fin..(row + 1) * fin];
            for (o, yv) in yrow.iter_mut().enumerate() {
                *yv = sim.dot(&wd[o * fin..(o + 1) * fin], xrow) as f32 + bd[o];
            }
        });
        y
    }

    fn retire(ws: &Workspace, cache: LinearCache) {
        ws.recycle(cache.input);
        ws.recycle(cache.weight);
    }
}

impl Layer for QLinear {
    fn forward(&mut self, ctx: &ExecCtx, input: &Tensor, mode: Mode) -> Tensor {
        let dense = Dense {
            bias: self.bias.value.data(),
        };
        self.core.forward(&dense, &mut self.cache, ctx, input, mode)
    }

    fn backward(&mut self, ctx: &ExecCtx, grad_output: &Tensor) -> Tensor {
        let cache = self
            .cache
            .as_ref()
            .expect("QLinear::backward without a Train-mode forward");
        let bias = &mut self.bias;
        self.core.backward(ctx, || {
            let (dx, dw, db) = linear_backward(ctx, cache, grad_output);
            for (g, d) in bias.grad.data_mut().iter_mut().zip(&db) {
                *g += d;
            }
            (dx, dw)
        })
    }

    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(self.core.weight_mut());
        f(&mut self.bias);
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
    use ams_tensor::KernelDispatch;

    #[test]
    fn last_layer_injects_only_at_eval() {
        let mut r = rng::seeded(0);
        let hw = HardwareConfig::ams(QuantConfig::w8a8(), Vmac::new(8, 8, 8, 8.0));
        let mut fc = QLinear::new("fc", 8, 4, &hw, true, 0, &mut r);
        let x = Tensor::ones(&[2, 8]);
        let t1 = fc.forward(&ExecCtx::serial(), &x, Mode::Train);
        let t2 = fc.forward(&ExecCtx::serial(), &x, Mode::Train);
        assert_eq!(t1, t2, "no injection during training on the last layer");
        let e1 = fc.forward(&ExecCtx::serial(), &x, Mode::Eval);
        assert_ne!(t1, e1, "eval must inject");
    }

    #[test]
    fn ablation_flag_restores_train_injection() {
        let mut r = rng::seeded(1);
        let mut hw = HardwareConfig::ams(QuantConfig::w8a8(), Vmac::new(8, 8, 8, 8.0));
        hw.inject_last_layer_train = true;
        let mut fc = QLinear::new("fc", 8, 4, &hw, true, 0, &mut r);
        let x = Tensor::ones(&[2, 8]);
        let t1 = fc.forward(&ExecCtx::serial(), &x, Mode::Train);
        let t2 = fc.forward(&ExecCtx::serial(), &x, Mode::Train);
        assert_ne!(
            t1, t2,
            "ablation mode injects fresh noise each training pass"
        );
    }

    #[test]
    fn gradients_flow_to_shadow_params() {
        let mut r = rng::seeded(2);
        let hw = HardwareConfig::quantized(QuantConfig::w6a6());
        let mut fc = QLinear::new("fc", 8, 4, &hw, true, 0, &mut r);
        let mut x = Tensor::zeros(&[3, 8]);
        rng::fill_uniform(&mut x, 0.0, 1.0, &mut r);
        let y = fc.forward(&ExecCtx::serial(), &x, Mode::Train);
        fc.backward(&ExecCtx::serial(), &Tensor::ones(y.dims()));
        assert!(fc.weight().grad.max_abs() > 0.0);
    }

    #[test]
    fn i8_kernel_stays_within_the_quantization_bound() {
        let mut r = rng::seeded(4);
        let hw = HardwareConfig::quantized(QuantConfig::w8a8());
        let mut fc = QLinear::new("fc", 16, 5, &hw, false, 0, &mut r);
        let mut x = Tensor::zeros(&[3, 16]);
        rng::fill_uniform(&mut x, 0.0, 1.0, &mut r);
        let want = fc.forward(&ExecCtx::serial(), &x, Mode::Eval);
        let got = fc.forward(
            &ExecCtx::serial().with_kernel(KernelDispatch::I8),
            &x,
            Mode::Eval,
        );
        // DoReFa bounds both operands by 1, so each re-coding scale is at
        // most 1/127; the digital bias is exact on both paths.
        let s = 1.0f32 / 127.0;
        let bound = fc.n_tot() as f32 * (s + s * s * 0.25) + 1e-4;
        for (g, w) in got.data().iter().zip(want.data()) {
            assert!((g - w).abs() <= bound, "i8 {g} vs f32 {w}, bound {bound}");
        }
    }

    #[test]
    fn i8_kernel_is_inert_in_train_mode() {
        let mut r = rng::seeded(5);
        let hw = HardwareConfig::quantized(QuantConfig::w8a8());
        let mut fc = QLinear::new("fc", 8, 4, &hw, true, 0, &mut r);
        let x = Tensor::ones(&[2, 8]);
        let t1 = fc.forward(&ExecCtx::serial(), &x, Mode::Train);
        let t2 = fc.forward(
            &ExecCtx::serial().with_kernel(KernelDispatch::I8),
            &x,
            Mode::Train,
        );
        assert_eq!(t1, t2, "training must stay on the f32 kernels");
    }

    #[test]
    fn fp32_matches_plain_linear() {
        let mut r = rng::seeded(3);
        let hw = HardwareConfig::fp32();
        let mut fc = QLinear::new("fc", 6, 2, &hw, false, 0, &mut r);
        let mut x = Tensor::zeros(&[2, 6]);
        rng::fill_uniform(&mut x, 0.0, 1.0, &mut r);
        let y = fc.forward(&ExecCtx::serial(), &x, Mode::Eval);
        let (want, _) = linear_forward(
            &ExecCtx::serial(),
            &x,
            &fc.weight().value,
            Some(fc.bias.value.data()),
            false,
        );
        assert_eq!(y, want);
    }
}
