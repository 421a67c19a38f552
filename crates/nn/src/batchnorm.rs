//! Batch normalization over NCHW tensors.
//!
//! Batch norm is the star of the paper's Section 3: retraining with AMS
//! error in the loop works *because* the batch-norm layers learn to push
//! activation means away from zero (paper Fig. 6, Table 2). The layer
//! therefore supports per-parameter freezing and exposes its running
//! statistics as checkpointable state.

use ams_tensor::{ExecCtx, Tensor};

use crate::layer::{Layer, Mode};
use crate::param::Param;

/// Per-channel batch normalization for `(N, C, H, W)` activations.
///
/// Training mode normalizes with batch statistics and updates running
/// estimates with momentum; evaluation mode uses the running estimates.
///
/// # Example
///
/// ```
/// use ams_nn::{BatchNorm2d, Layer, Mode};
/// use ams_tensor::{ExecCtx, Tensor};
///
/// let mut bn = BatchNorm2d::new("bn", 4);
/// let x = Tensor::ones(&[2, 4, 3, 3]);
/// let y = bn.forward(&ExecCtx::serial(), &x, Mode::Train);
/// // A constant input normalizes to (near) zero.
/// assert!(y.max_abs() < 1e-3);
/// ```
#[derive(Debug)]
pub struct BatchNorm2d {
    name: String,
    channels: usize,
    eps: f32,
    momentum: f32,
    gamma: Param,
    beta: Param,
    running_mean: Tensor,
    running_var: Tensor,
    // Train-mode cache.
    cache: Option<BnCache>,
}

#[derive(Debug)]
struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
    mode: Mode,
}

impl BatchNorm2d {
    /// Default epsilon added to the variance (matches PyTorch).
    pub const EPS: f32 = 1e-5;
    /// Default running-statistics momentum (matches PyTorch).
    pub const MOMENTUM: f32 = 0.1;

    /// Creates a batch-norm layer with `gamma = 1`, `beta = 0`, zero running
    /// mean and unit running variance.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0`.
    pub fn new(name: impl Into<String>, channels: usize) -> Self {
        assert!(channels > 0, "BatchNorm2d: zero channels");
        let name = name.into();
        BatchNorm2d {
            gamma: Param::new_no_decay(format!("{name}.gamma"), Tensor::ones(&[channels])),
            beta: Param::new_no_decay(format!("{name}.beta"), Tensor::zeros(&[channels])),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::ones(&[channels]),
            name,
            channels,
            eps: Self::EPS,
            momentum: Self::MOMENTUM,
            cache: None,
        }
    }

    /// The running mean estimate (evaluation-mode statistics).
    pub fn running_mean(&self) -> &Tensor {
        &self.running_mean
    }

    /// The running variance estimate (evaluation-mode statistics).
    pub fn running_var(&self) -> &Tensor {
        &self.running_var
    }

    fn normalize(&self, input: &Tensor, means: &[f32], inv_std: &[f32]) -> Tensor {
        let (n, c, h, w) = input.dims4();
        let plane = h * w;
        let mut x_hat = input.clone();
        let xd = x_hat.data_mut();
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * plane;
                let (m, is) = (means[ci], inv_std[ci]);
                for v in &mut xd[base..base + plane] {
                    *v = (*v - m) * is;
                }
            }
        }
        x_hat
    }

    fn affine(&self, x_hat: &Tensor) -> Tensor {
        let (n, c, h, w) = x_hat.dims4();
        let plane = h * w;
        let mut y = x_hat.clone();
        let yd = y.data_mut();
        let (g, b) = (self.gamma.value.data(), self.beta.value.data());
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * plane;
                let (gc, bc) = (g[ci], b[ci]);
                for v in &mut yd[base..base + plane] {
                    *v = gc * *v + bc;
                }
            }
        }
        y
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, _ctx: &ExecCtx, input: &Tensor, mode: Mode) -> Tensor {
        let _t = _ctx
            .metrics()
            .scope(|| format!("layer.{}.forward", self.name));
        let (_, c, _, _) = input.dims4();
        assert_eq!(
            c, self.channels,
            "BatchNorm2d: expected {} channels, got {c}",
            self.channels
        );
        let (means, vars) = if mode.is_train() {
            let m = input.channel_means();
            let v = input.channel_vars(&m);
            // Update running statistics.
            for (rm, mi) in self.running_mean.data_mut().iter_mut().zip(&m) {
                *rm = (1.0 - self.momentum) * *rm + self.momentum * mi;
            }
            for (rv, vi) in self.running_var.data_mut().iter_mut().zip(&v) {
                *rv = (1.0 - self.momentum) * *rv + self.momentum * vi;
            }
            (m, v)
        } else {
            (
                self.running_mean.data().to_vec(),
                self.running_var.data().to_vec(),
            )
        };
        let inv_std: Vec<f32> = vars.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
        let x_hat = self.normalize(input, &means, &inv_std);
        let y = self.affine(&x_hat);
        if mode.is_train() {
            self.cache = Some(BnCache {
                x_hat,
                inv_std,
                mode,
            });
        } else {
            self.cache = None;
        }
        y
    }

    fn backward(&mut self, _ctx: &ExecCtx, grad_output: &Tensor) -> Tensor {
        let _t = _ctx
            .metrics()
            .scope(|| format!("layer.{}.backward", self.name));
        let cache = self
            .cache
            .as_ref()
            .expect("BatchNorm2d::backward without a Train-mode forward");
        debug_assert!(cache.mode.is_train());
        let (n, c, h, w) = grad_output.dims4();
        let plane = h * w;
        let m = (n * plane) as f32;

        // Per-channel reductions: Σdy and Σ(dy ⊙ x̂).
        let mut sum_dy = vec![0.0f32; c];
        let mut sum_dy_xhat = vec![0.0f32; c];
        let dyd = grad_output.data();
        let xh = cache.x_hat.data();
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * plane;
                let mut s = 0.0f32;
                let mut sx = 0.0f32;
                for i in base..base + plane {
                    s += dyd[i];
                    sx += dyd[i] * xh[i];
                }
                sum_dy[ci] += s;
                sum_dy_xhat[ci] += sx;
            }
        }

        // Parameter gradients.
        for ci in 0..c {
            self.gamma.grad.data_mut()[ci] += sum_dy_xhat[ci];
            self.beta.grad.data_mut()[ci] += sum_dy[ci];
        }

        // Input gradient:
        // dx = γ·inv_std/m · (m·dy − Σdy − x̂·Σ(dy·x̂))
        let mut dx = grad_output.zeros_like();
        let dxd = dx.data_mut();
        let g = self.gamma.value.data();
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * plane;
                let scale = g[ci] * cache.inv_std[ci] / m;
                let (sd, sdx) = (sum_dy[ci], sum_dy_xhat[ci]);
                for i in base..base + plane {
                    dxd[i] = scale * (m * dyd[i] - sd - xh[i] * sdx);
                }
            }
        }
        dx
    }

    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn for_each_state(&mut self, f: &mut dyn FnMut(&str, &mut Tensor)) {
        let gname = self.gamma.name().to_string();
        f(&gname, &mut self.gamma.value);
        let bname = self.beta.name().to_string();
        f(&bname, &mut self.beta.value);
        let rm = format!("{}.running_mean", self.name);
        f(&rm, &mut self.running_mean);
        let rv = format!("{}.running_var", self.name);
        f(&rv, &mut self.running_var);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_tensor::rng;

    #[test]
    fn train_forward_normalizes() {
        let mut r = rng::seeded(0);
        let mut x = Tensor::zeros(&[8, 3, 4, 4]);
        rng::fill_normal(&mut x, 5.0, 2.0, &mut r);
        let mut bn = BatchNorm2d::new("bn", 3);
        let y = bn.forward(&ExecCtx::serial(), &x, Mode::Train);
        let means = y.channel_means();
        let vars = y.channel_vars(&means);
        for ci in 0..3 {
            assert!(means[ci].abs() < 1e-4, "channel {ci} mean {}", means[ci]);
            assert!(
                (vars[ci] - 1.0).abs() < 1e-2,
                "channel {ci} var {}",
                vars[ci]
            );
        }
    }

    #[test]
    fn running_stats_approach_batch_stats() {
        let mut r = rng::seeded(1);
        let mut bn = BatchNorm2d::new("bn", 2);
        for _ in 0..200 {
            let mut x = Tensor::zeros(&[16, 2, 2, 2]);
            rng::fill_normal(&mut x, 3.0, 1.0, &mut r);
            bn.forward(&ExecCtx::serial(), &x, Mode::Train);
        }
        for ci in 0..2 {
            assert!((bn.running_mean().data()[ci] - 3.0).abs() < 0.2);
            assert!((bn.running_var().data()[ci] - 1.0).abs() < 0.2);
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new("bn", 1);
        // With default stats (mean 0, var 1), eval is ~identity.
        let x = Tensor::from_vec(&[1, 1, 1, 2], vec![0.5, -0.5]).unwrap();
        let y = bn.forward(&ExecCtx::serial(), &x, Mode::Eval);
        for (a, b) in x.data().iter().zip(y.data()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn gradcheck_small() {
        let mut r = rng::seeded(2);
        let mut x = Tensor::zeros(&[4, 2, 3, 3]);
        rng::fill_normal(&mut x, 1.0, 2.0, &mut r);

        let loss_of = |x_: &Tensor| -> f32 {
            let mut bn = BatchNorm2d::new("bn", 2);
            // Non-trivial affine so gamma/beta gradients matter.
            bn.gamma.value.data_mut().copy_from_slice(&[1.5, 0.7]);
            bn.beta.value.data_mut().copy_from_slice(&[0.2, -0.3]);
            let y = bn.forward(&ExecCtx::serial(), x_, Mode::Train);
            0.5 * y.data().iter().map(|v| v * v).sum::<f32>()
        };

        let mut bn = BatchNorm2d::new("bn", 2);
        bn.gamma.value.data_mut().copy_from_slice(&[1.5, 0.7]);
        bn.beta.value.data_mut().copy_from_slice(&[0.2, -0.3]);
        let y = bn.forward(&ExecCtx::serial(), &x, Mode::Train);
        let dx = bn.backward(&ExecCtx::serial(), &y); // dL/dy = y for L = ½‖y‖²

        let eps = 1e-2;
        for i in [0usize, 17, 50] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss_of(&xp) - loss_of(&xm)) / (2.0 * eps);
            let ana = dx.data()[i];
            assert!(
                (num - ana).abs() < 5e-2 * (1.0 + ana.abs()),
                "dx[{i}]: {num} vs {ana}"
            );
        }
    }

    #[test]
    fn state_includes_running_stats() {
        let mut bn = BatchNorm2d::new("bn", 2);
        let mut names = Vec::new();
        bn.for_each_state(&mut |n, _| names.push(n.to_string()));
        assert_eq!(
            names,
            vec!["bn.gamma", "bn.beta", "bn.running_mean", "bn.running_var"]
        );
    }
}
