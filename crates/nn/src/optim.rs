//! Stochastic gradient descent.

use crate::layer::Layer;

/// SGD with classical momentum and decoupled weight-decay flagging.
///
/// The update per parameter `w` with gradient `g` is
///
/// ```text
/// v ← μ·v + g + λ·w      (λ applied only when the parameter opts in)
/// w ← w − lr·v
/// ```
///
/// Parameters with [`crate::Param::frozen`] set are skipped entirely — the
/// mechanism behind the paper's Table 2 selective-freezing study. Gradients
/// of *all* parameters (frozen included) are zeroed after the step.
///
/// # Example
///
/// ```
/// use ams_nn::{softmax_cross_entropy, BatchNorm2d, Layer, Mode, Sgd};
/// use ams_tensor::{ExecCtx, Tensor};
///
/// // Batch norm over (N, 2, 1, 1) maps a constant batch to its shift β,
/// // which SGD then trains as the logits of class 0.
/// let mut net = BatchNorm2d::new("bn", 2);
/// let opt = Sgd::with_momentum(0.05, 0.9);
/// let x = Tensor::ones(&[8, 2, 1, 1]);
/// let labels = vec![0usize; 8];
/// let mut last = f32::INFINITY;
/// for _ in 0..20 {
///     let logits = net.forward(&ExecCtx::serial(), &x, Mode::Train).reshaped(&[8, 2]);
///     let (loss, grad) = softmax_cross_entropy(&logits, &labels);
///     net.backward(&ExecCtx::serial(), &grad.reshaped(&[8, 2, 1, 1]));
///     opt.step(&mut net);
///     last = loss;
/// }
/// assert!(last < 0.1, "training did not converge: {last}");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient `μ` (0 disables momentum).
    pub momentum: f32,
    /// L2 weight-decay coefficient `λ` applied to parameters with
    /// [`crate::Param::decay`] set.
    pub weight_decay: f32,
}

impl Sgd {
    /// Plain SGD with the given learning rate (no momentum, no decay).
    pub fn new(lr: f32) -> Self {
        Sgd {
            lr,
            momentum: 0.0,
            weight_decay: 0.0,
        }
    }

    /// SGD with momentum.
    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        Sgd {
            lr,
            momentum,
            weight_decay: 0.0,
        }
    }

    /// Returns a copy with the given weight decay.
    pub fn weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Applies one update to every unfrozen parameter of `model`, then
    /// zeroes all gradients.
    pub fn step(&self, model: &mut dyn Layer) {
        let (lr, mu, wd) = (self.lr, self.momentum, self.weight_decay);
        model.for_each_param(&mut |p| {
            if !p.frozen {
                let decay = if p.decay { wd } else { 0.0 };
                // v ← μ·v + g + λ·w ; w ← w − lr·v
                let n = p.value.len();
                for i in 0..n {
                    let g = p.grad.data()[i] + decay * p.value.data()[i];
                    let v = mu * p.velocity.data()[i] + g;
                    p.velocity.data_mut()[i] = v;
                    p.value.data_mut()[i] -= lr * v;
                }
            }
            p.zero_grad();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchNorm2d, Mode, Param};
    use ams_tensor::{rng, ExecCtx, Tensor};

    /// An identity layer over one parameter whose backward adds a
    /// constant gradient of 1 to every element.
    struct Ones {
        p: Param,
    }

    impl Layer for Ones {
        fn forward(&mut self, _ctx: &ExecCtx, x: &Tensor, _m: Mode) -> Tensor {
            x.clone()
        }
        fn backward(&mut self, _ctx: &ExecCtx, g: &Tensor) -> Tensor {
            for v in self.p.grad.data_mut() {
                *v += 1.0;
            }
            g.clone()
        }
        fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
            f(&mut self.p)
        }
        fn name(&self) -> &str {
            "ones"
        }
    }

    #[test]
    fn frozen_params_do_not_move() {
        let mut bn = BatchNorm2d::new("bn", 2);
        bn.for_each_param(&mut |p| p.frozen = true);
        let before: Vec<f32> = {
            let mut v = Vec::new();
            bn.for_each_param(&mut |p| v.extend_from_slice(p.value.data()));
            v
        };
        let mut x = Tensor::zeros(&[2, 2, 2, 2]);
        rng::fill_normal(&mut x, 0.0, 1.0, &mut rng::seeded(0));
        let y = bn.forward(&ExecCtx::serial(), &x, Mode::Train);
        bn.backward(&ExecCtx::serial(), &Tensor::ones(y.dims()));
        Sgd::new(1.0).step(&mut bn);
        let after: Vec<f32> = {
            let mut v = Vec::new();
            bn.for_each_param(&mut |p| v.extend_from_slice(p.value.data()));
            v
        };
        assert_eq!(before, after);
        // Gradients are still cleared.
        bn.for_each_param(&mut |p| assert_eq!(p.grad.max_abs(), 0.0));
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradient() {
        let w = Tensor::from_vec(&[3], vec![0.5, -1.0, 2.0]).unwrap();
        let mut m = Ones {
            p: Param::new("w", w),
        };
        let norm_before: f32 = m.p.value.data().iter().map(|v| v * v).sum();
        // No backward: gradient is zero, decay still pulls weights in.
        Sgd::new(0.1).weight_decay(0.5).step(&mut m);
        let norm_after: f32 = m.p.value.data().iter().map(|v| v * v).sum();
        assert!(norm_after < norm_before);
    }

    #[test]
    fn momentum_accelerates_along_constant_gradient() {
        // Single scalar parameter, constant gradient of 1.
        let mut m = Ones {
            p: Param::new("w", Tensor::zeros(&[1])),
        };
        let opt = Sgd::with_momentum(1.0, 0.9);
        let x = Tensor::zeros(&[1]);
        let mut steps = Vec::new();
        let mut prev = 0.0f32;
        for _ in 0..4 {
            m.forward(&ExecCtx::serial(), &x, Mode::Train);
            m.backward(&ExecCtx::serial(), &x);
            opt.step(&mut m);
            let w = m.p.value.data()[0];
            steps.push(prev - w);
            prev = w;
        }
        // Velocity builds: 1, 1.9, 2.71, ...
        assert!((steps[0] - 1.0).abs() < 1e-6);
        assert!((steps[1] - 1.9).abs() < 1e-6);
        assert!(steps[2] > steps[1]);
    }
}
