//! The analog GEMM core shared by [`crate::QConv2d`] and [`crate::QLinear`].
//!
//! The paper treats a convolution and a fully-connected layer alike: an
//! error-free GEMM of quantized operands plus additive ADC error sized by
//! `N_tot` (Eq. 1–2). [`AnalogGemm`] owns everything that policy needs —
//! the shadow weight, quantizer, error model, frozen eval weights,
//! per-request noise seeds, inference time, compensation and probes — and
//! runs the one forward that picks the kernel, injects, compensates and
//! observes. A layer contributes only its geometry through
//! [`GemmGeometry`]: how its input meets the weight matrix on each kernel.
//!
//! Training quantizes the shadow weights every forward (they move every
//! step). Evaluation never does: like programmed hardware, it reads the
//! frozen eval weights, a cache of one pure function of the shadow
//! weights and the inference time. The first eval forward fills it; any
//! mutable access to the shadow weight, and any bitwise change of the
//! inference time, drops it.

use std::sync::Arc;

use ams_core::error_model::{LayerError, NoiseContext, DRIFT_T0};
use ams_core::vmac_sim::VmacSimulator;
use ams_nn::{Mode, Param};
use ams_quant::{build_quantizer, QuantizedI8, Quantizer};
use ams_tensor::obs::WelfordState;
use ams_tensor::rng::RngState;
use ams_tensor::{noise_stream_seed, Density, ExecCtx, KernelDispatch, Tensor, Workspace};

use crate::config::{HardwareConfig, InputKind};
use crate::frozen::FrozenLayerWeights;

/// What a layer's shape contributes to an [`AnalogGemm`] forward: how the
/// quantized input meets the `[rows, N_tot]` weight matrix on each kernel,
/// and what the training forward keeps for the backward pass.
pub(crate) trait GemmGeometry {
    /// The backward cache of a train-mode forward.
    type Cache;

    /// The eval forward on the f32 GEMM.
    fn forward_f32(&self, ctx: &ExecCtx, xq: &Tensor, wmat: &Tensor, density: Density) -> Tensor;

    /// The train forward on the f32 GEMM: the same product as
    /// [`GemmGeometry::forward_f32`], with the quantized input and weights
    /// moved into the backward cache.
    fn forward_train(
        &self,
        ctx: &ExecCtx,
        xq: Tensor,
        wmat: Tensor,
        density: Density,
    ) -> (Tensor, Self::Cache);

    /// The eval forward on the packed integer GEMM.
    fn forward_i8(&self, ctx: &ExecCtx, xq: &Tensor, w: &QuantizedI8) -> Tensor;

    /// The §4 fine-grained forward: every reduction chopped into
    /// `N_mult`-sized analog partial sums, each pushed through the
    /// simulator's modeled conversion (plain quantizing, ΔΣ error
    /// recycling, or reference-scaled) and accumulated digitally.
    fn forward_per_vmac(
        &self,
        ctx: &ExecCtx,
        xq: &Tensor,
        wmat: &Tensor,
        sim: &VmacSimulator,
    ) -> Tensor;

    /// Returns a cache's pooled tensors to the workspace.
    fn retire(ws: &Workspace, cache: Self::Cache);
}

/// One analog layer's GEMM: the paper's quantized layer (Fig. 3) with
/// shadow FP32 weights quantized to `B_W` bits, inputs quantized to `B_X`
/// bits, and the error of the configured [`LayerError`] added to the
/// output — in the forward pass only; gradients reach the shadow weight
/// through the straight-through estimator.
///
/// Every analog layer of a network is reached through
/// [`crate::AmsModel::for_each_analog_layer`], which is how the per-layer
/// setters and getters below are broadcast.
#[derive(Debug)]
pub struct AnalogGemm {
    name: String,
    weight: Param,
    n_tot: usize,
    quantizer: Box<dyn Quantizer>,
    input_kind: InputKind,
    hw: HardwareConfig,
    layer_index: u64,
    is_last: bool,
    model: LayerError,
    sigma: Option<f32>,
    ste_scale: Option<Tensor>,
    frozen: Option<Arc<FrozenLayerWeights>>,
    request_seeds: Option<(Arc<Vec<u64>>, u64)>,
    t_infer: f64,
    comp: Option<(f32, f32)>,
    probe_enabled: bool,
    probe_sum: f64,
    probe_sumsq: f64,
    probe_count: usize,
    last_macs_per_image: Option<usize>,
}

impl AnalogGemm {
    /// Wraps a shadow weight whose first dimension is the GEMM's output
    /// rows; the rest flattens to `N_tot`. `layer_index` decorrelates the
    /// layer's noise stream under the shared [`HardwareConfig::noise_seed`];
    /// `is_last` applies the paper's last-layer training rule.
    pub(crate) fn new(
        name: String,
        weight: Param,
        hw: &HardwareConfig,
        input_kind: InputKind,
        layer_index: u64,
        is_last: bool,
    ) -> Self {
        let n_tot = weight.value.len() / weight.value.dims()[0];
        let model = hw.layer_error(layer_index);
        AnalogGemm {
            // σ depends only on `n_tot`, so an underflow warns once per
            // layer, not once per forward.
            sigma: model.sigma(n_tot),
            model,
            quantizer: build_quantizer(hw.quant, hw.scheme),
            name,
            weight,
            n_tot,
            input_kind,
            hw: *hw,
            layer_index,
            is_last,
            ste_scale: None,
            frozen: None,
            request_seeds: None,
            t_infer: DRIFT_T0,
            comp: None,
            probe_enabled: false,
            probe_sum: 0.0,
            probe_sumsq: 0.0,
            probe_count: 0,
            last_macs_per_image: None,
        }
    }

    /// The layer name (metric keys, energy and budget reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// `N_tot`: multiplies per output activation.
    pub fn n_tot(&self) -> usize {
        self.n_tot
    }

    /// Immutable access to the shadow FP32 weight.
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// The only mutable path to the shadow weight (optimizer steps,
    /// checkpoint loads, gradient zeroing): it drops the frozen eval
    /// weights, which the next eval forward rebuilds from the new values.
    pub(crate) fn weight_mut(&mut self) -> &mut Param {
        self.frozen = None;
        &mut self.weight
    }

    /// Whether this is the network's final classifier (the paper's
    /// last-layer training rule applies).
    pub fn is_last_layer(&self) -> bool {
        self.is_last
    }

    /// The lumped-equivalent σ of the error this layer injects per output
    /// element (`None` when the configured error model injects nothing).
    pub fn error_sigma(&self) -> Option<f32> {
        self.sigma
    }

    /// The live error model realizing this layer's hardware error budget.
    pub fn error_model(&self) -> &LayerError {
        &self.model
    }

    /// Reseeds the AMS noise stream (fresh noise per validation pass).
    pub fn reseed_noise(&mut self, pass_seed: u64, noise_index: u64) {
        self.model.reseed(noise_stream_seed(pass_seed, noise_index));
    }

    /// The current cursor of this layer's noise stream (checkpoint/resume).
    pub fn noise_state(&self) -> RngState {
        self.model.noise_state()
    }

    /// Repositions the noise stream at a captured cursor.
    pub fn restore_noise_state(&mut self, state: &RngState) {
        self.model.restore_noise_state(state);
    }

    /// Builds this layer's eval weights from the current shadow weights at
    /// the current inference time, installs them as the eval cache, and
    /// returns them for sharing with worker replicas
    /// ([`crate::SharedModelWeights`]).
    ///
    /// The eval weights are the quantized shadow weights with the error
    /// model's weight-domain realization folded in (device mismatch,
    /// programming noise, conductance drift at `t`), plus their pre-coded
    /// i8 form whenever both widths fit 8 bits and nothing perturbs the
    /// f32 weights, whatever kernel `ctx` dispatches to. Every eval
    /// forward reads this cache, and the first one on an empty cache
    /// calls this; training ignores it (the shadows move every step).
    pub fn freeze_eval_weights(&mut self, ctx: &ExecCtx) -> Arc<FrozenLayerWeights> {
        let ws = ctx.workspace();
        let qw = self.quantizer.quantize_weights_in(ws, &self.weight.value);
        ws.recycle(qw.ste_scale);
        let noise_ctx = NoiseContext::eval(self.layer_index).at_time(self.t_infer);
        let wmat = self
            .realize(ws, qw.values, &noise_ctx)
            .reshape(&self.wmat_dims())
            .expect("weight matrix shape");
        let i8_fits = self.quantizer.weight_bits() <= 8 && self.quantizer.activation_bits() <= 8;
        let i8 = (i8_fits && !self.model.perturbs_weights()).then(|| {
            self.quantizer
                .quantize_weights_i8_in(ws, &self.weight.value)
        });
        let frozen = Arc::new(FrozenLayerWeights {
            wmat,
            density: qw.density,
            i8,
        });
        self.frozen = Some(Arc::clone(&frozen));
        frozen
    }

    /// Installs frozen weights produced by [`AnalogGemm::freeze_eval_weights`]
    /// on a twin layer (same architecture, typically another worker's
    /// replica), so replicas share one weight buffer. The twin must hold
    /// the same shadow weights at the same inference time: the adopted
    /// weights are this layer's eval cache, dropped like one it built.
    ///
    /// # Panics
    ///
    /// Panics if the frozen matrix does not match this layer's shape.
    pub fn adopt_frozen_weights(&mut self, fw: Arc<FrozenLayerWeights>) {
        assert_eq!(
            fw.wmat.dims(),
            &self.wmat_dims(),
            "layer {}: frozen weights from a different architecture",
            self.name
        );
        self.frozen = Some(fw);
    }

    /// Sets (or clears) the per-request noise seeds for the next eval
    /// forward: image `i` of the batch draws its layer noise from
    /// `noise_stream_seed(seeds[i], noise_index)`, exactly the stream an
    /// offline `reseed_noise(seeds[i], noise_index)` + batch-1 forward
    /// would use — that is what makes a batch of requests bit-identical
    /// to offline evaluation.
    pub fn set_request_noise_seeds(&mut self, seeds: Option<Arc<Vec<u64>>>, noise_index: u64) {
        self.request_seeds = seeds.map(|s| (s, noise_index));
    }

    /// Sets the simulated inference time (seconds since programming) that
    /// this layer's [`NoiseContext`] carries into every error-model
    /// evaluation. Only conductance drift reads it. A bitwise change drops
    /// the frozen eval weights, which fold the weight realization at one
    /// `t`; the next eval forward rebuilds them at the new time.
    pub fn set_inference_time(&mut self, t: f64) {
        if t.to_bits() != self.t_infer.to_bits() {
            self.frozen = None;
        }
        self.t_infer = t;
    }

    /// Installs (or clears) the per-layer affine output compensation
    /// `y ← a·y + b`, applied at eval time after error injection —
    /// the CorrectNet-style drift correction fitted by the runner.
    pub fn set_compensation(&mut self, comp: Option<(f32, f32)>) {
        self.comp = comp;
    }

    /// Enables or disables output probing (paper Fig. 6); enabling resets
    /// the accumulator.
    pub fn set_probe(&mut self, enabled: bool) {
        self.probe_enabled = enabled;
        self.probe_sum = 0.0;
        self.probe_sumsq = 0.0;
        self.probe_count = 0;
    }

    /// Mean of all outputs observed since probing was enabled, or `None`
    /// if nothing has been observed.
    pub fn probe_mean(&self) -> Option<f32> {
        self.probe_stats().map(|(mean, _)| mean as f32)
    }

    /// Mean and (population) variance of all outputs observed since
    /// probing was enabled, or `None` if nothing has been observed — the
    /// statistics the compensation fit matches between a clean and a
    /// noisy twin.
    pub fn probe_stats(&self) -> Option<(f64, f64)> {
        (self.probe_count > 0).then(|| {
            let n = self.probe_count as f64;
            let mean = self.probe_sum / n;
            (mean, (self.probe_sumsq / n - mean * mean).max(0.0))
        })
    }

    /// MAC operations per image of the most recent forward pass (`None`
    /// before any forward).
    pub fn macs_per_image(&self) -> Option<usize> {
        self.last_macs_per_image
    }

    /// The kernels' weight-matrix layout: output rows by `N_tot`.
    fn wmat_dims(&self) -> [usize; 2] {
        [self.weight.value.dims()[0], self.n_tot]
    }

    /// `values` with the error model's weight-domain realization (device
    /// mismatch, conductance drift) applied.
    fn realize(&self, ws: &Workspace, values: Tensor, noise_ctx: &NoiseContext) -> Tensor {
        match self.model.realize_weights(&values, noise_ctx) {
            Some(r) => {
                ws.recycle(values);
                r
            }
            None => values,
        }
    }

    fn quantize_input(&self, ctx: &ExecCtx, input: &Tensor) -> Tensor {
        let ws = ctx.workspace();
        match self.input_kind {
            InputKind::Unit => self.quantizer.quantize_activations_in(ws, input),
            InputKind::SignedRescaled => {
                // [0, 1] → [-1, 1], then sign-magnitude quantization.
                let rescaled = ws.map_tensor(input, |v| 2.0 * v - 1.0);
                let q = self.quantizer.quantize_signed_in(ws, &rescaled);
                ws.recycle(rescaled);
                q
            }
        }
    }

    /// The eval GEMM on the frozen weights, built first if the cache is
    /// empty: the per-VMAC simulation when the error model asks for it,
    /// else the integer GEMM when the context dispatches to it and the
    /// frozen weights have an i8 form, else the f32 GEMM. Error injection
    /// still runs on the f32 output — only the dot product moves to i8.
    fn forward_eval<G: GemmGeometry>(
        &mut self,
        geom: &G,
        ctx: &ExecCtx,
        xq: &Tensor,
        sim: Option<&VmacSimulator>,
    ) -> Tensor {
        let fw = match &self.frozen {
            Some(fw) => Arc::clone(fw),
            None => self.freeze_eval_weights(ctx),
        };
        let i8 = fw
            .i8
            .as_ref()
            .filter(|_| ctx.kernel() == KernelDispatch::I8);
        match (sim, i8) {
            (Some(sim), _) => geom.forward_per_vmac(ctx, xq, &fw.wmat, sim),
            (None, Some(qi)) if self.request_seeds.is_some() => {
                forward_i8_per_image(geom, ctx, xq, qi)
            }
            (None, Some(qi)) => geom.forward_i8(ctx, xq, qi),
            (None, None) => geom.forward_f32(ctx, xq, &fw.wmat, fw.density),
        }
    }

    /// The layer forward: quantize the input, run the GEMM (on freshly
    /// quantized weights in training, on the frozen ones in eval), inject
    /// the AMS error, compensate, and observe.
    pub(crate) fn forward<G: GemmGeometry>(
        &mut self,
        geom: &G,
        cache: &mut Option<G::Cache>,
        ctx: &ExecCtx,
        input: &Tensor,
        mode: Mode,
    ) -> Tensor {
        let _t = ctx
            .metrics()
            .scope(|| format!("layer.{}.forward", self.name));
        let ws = ctx.workspace();
        // Retire last forward's pooled tensors before drawing new ones, so
        // steady-state passes cycle a fixed set of buffers instead of
        // growing the pool.
        if let Some(old) = cache.take() {
            G::retire(ws, old);
        }
        if let Some(old) = self.ste_scale.take() {
            ws.recycle(old);
        }
        let xq = self.quantize_input(ctx, input);
        let train = mode.is_train();
        let injecting = self.hw.injects(train, self.is_last);
        // Paper §4's fine-grained mode: chunked per-VMAC conversion
        // simulation, evaluation only (training keeps the fast additive
        // model the error model falls back to).
        let sim = if injecting && !train {
            self.model.operand_sim()
        } else {
            None
        };
        // One context per forward: every error-model evaluation below
        // (training's weight realization, injection) happens under it.
        let noise_ctx = NoiseContext::eval(self.layer_index).at_time(self.t_infer);
        let (mut y, new_cache) = if train {
            let qw = self.quantizer.quantize_weights_in(ws, &self.weight.value);
            let wmat = self
                .realize(ws, qw.values, &noise_ctx)
                .reshape(&self.wmat_dims())
                .expect("weight matrix shape");
            self.ste_scale = Some(qw.ste_scale);
            let (y, cache) = geom.forward_train(ctx, xq, wmat, qw.density);
            (y, Some(cache))
        } else {
            let y = self.forward_eval(geom, ctx, &xq, sim.as_ref());
            ws.recycle(xq);
            (y, None)
        };
        if injecting && sim.is_none() {
            self.inject(ctx, &noise_ctx, &mut y, train);
        }
        if let Some((a, b)) = self.comp {
            // CorrectNet-style affine correction of the noisy output,
            // eval only — training must see the raw noisy statistics the
            // compensation was fitted against.
            if !train {
                for v in y.data_mut() {
                    *v = a * *v + b;
                }
            }
        }
        if ctx.metrics().enabled() {
            // Activation-mean drift at the layer output (paper Fig. 6).
            let mut acts = WelfordState::new();
            for &v in y.data() {
                acts.push(f64::from(v));
            }
            ctx.metrics()
                .merge_observations(&format!("act.{}", self.name), &acts);
        }
        if self.probe_enabled {
            self.probe_sum += f64::from(y.sum());
            self.probe_sumsq += y
                .data()
                .iter()
                .map(|&v| f64::from(v) * f64::from(v))
                .sum::<f64>();
            self.probe_count += y.len();
        }
        let batch = y.dims()[0].max(1);
        self.last_macs_per_image = Some(y.len() / batch * self.n_tot);
        *cache = new_cache;
        y
    }

    /// Adds the AMS error to a forward's output.
    fn inject(&mut self, ctx: &ExecCtx, noise_ctx: &NoiseContext, y: &mut Tensor, train: bool) {
        let sigma = self.sigma;
        match self.request_seeds.as_ref().filter(|_| !train) {
            Some((seeds, noise_index)) => {
                // Per-request noise streams: image `i` draws the exact
                // stream an offline reseed_noise(seeds[i]) + batch-1
                // forward would, so a batch of requests stays
                // bit-identical to offline evaluation regardless of batch
                // composition.
                let n = y.dims()[0];
                assert_eq!(
                    seeds.len(),
                    n,
                    "layer {}: {} request seeds for batch of {n}",
                    self.name,
                    seeds.len()
                );
                let per_image = y.len() / n;
                for (chunk, &seed) in y.data_mut().chunks_mut(per_image).zip(seeds.iter()) {
                    let slice_ctx = noise_ctx.with_stream(noise_stream_seed(seed, *noise_index));
                    self.model.inject(&slice_ctx, chunk, sigma, false);
                }
            }
            None => {
                // Traced injection draws the identical RNG stream, so the
                // noisy activations are bit-identical with metrics on or off.
                let trace = ctx.metrics().enabled();
                let stats = self.model.inject(noise_ctx, y.data_mut(), sigma, trace);
                if !stats.is_empty() {
                    let enob = self.hw.vmac.expect("injects() implies a VMAC").enob;
                    // Key by scenario and ENOB: sweeps (Fig. 4/5) drive
                    // the same layer at several ENOBs, and each (model,
                    // ENOB) pair has a different error distribution.
                    ctx.metrics().merge_observations(
                        &self.hw.noise_gauge_key(&self.name, self.model.kind(), enob),
                        &stats,
                    );
                }
            }
        }
    }

    /// The backward pass: `grads` returns the gradients w.r.t. the
    /// quantized input and the weight matrix the forward used. The weight
    /// gradient reaches the shadow weight through the STE scale; the input
    /// gradient passes the activation quantizer straight through.
    pub(crate) fn backward(
        &mut self,
        ctx: &ExecCtx,
        grads: impl FnOnce() -> (Tensor, Tensor),
    ) -> Tensor {
        let _t = ctx
            .metrics()
            .scope(|| format!("layer.{}.backward", self.name));
        let (dxq, dwmat) = grads();
        let ste = self
            .ste_scale
            .as_ref()
            .expect("STE scale cached in Train forward");
        let dw = dwmat
            .reshape(self.weight.value.dims())
            .expect("weight grad shape")
            .mul(ste);
        self.weight.grad.add_assign(&dw);
        match self.input_kind {
            InputKind::Unit => dxq,
            // The [0,1]→[-1,1] affine contributes a factor of 2.
            InputKind::SignedRescaled => dxq.map(|g| 2.0 * g),
        }
    }
}

/// The i8 forward one image at a time. The i8 activation re-coding scale
/// is computed per tensor, so a batched call is not batch-invariant;
/// per-request reproducibility demands each image be coded alone —
/// exactly what offline batch-1 evaluation does. Only the GEMM loses
/// batch amortization; the rest of the net stays batched.
fn forward_i8_per_image<G: GemmGeometry>(
    geom: &G,
    ctx: &ExecCtx,
    xq: &Tensor,
    w: &QuantizedI8,
) -> Tensor {
    let ws = ctx.workspace();
    let n = xq.dims()[0];
    let mut dims = xq.dims().to_vec();
    dims[0] = 1;
    let mut one = ws.take_tensor(&dims);
    let mut y_all: Option<Tensor> = None;
    for (i, x) in xq.data().chunks(one.len()).enumerate() {
        one.data_mut().copy_from_slice(x);
        let yi = geom.forward_i8(ctx, &one, w);
        let y = y_all.get_or_insert_with(|| {
            let mut dims = yi.dims().to_vec();
            dims[0] = n;
            ws.take_tensor(&dims)
        });
        let per_out = yi.len();
        y.data_mut()[i * per_out..(i + 1) * per_out].copy_from_slice(yi.data());
        ws.recycle(yi);
    }
    ws.recycle(one);
    y_all.expect("batch is never empty")
}
