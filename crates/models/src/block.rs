//! The residual basic block.

use ams_nn::{BatchNorm2d, ClippedRelu, Layer, Mode, Param};
use ams_tensor::{ExecCtx, Tensor};
use rand::Rng;

use crate::config::{HardwareConfig, InputKind};
use crate::qconv::QConv2d;

/// A ResNet basic block with quantized convolutions:
/// `conv(3×3) → BN → ReLU1 → conv(3×3) → BN`, a skip connection (with a
/// 1×1 quantized convolution + BN when the shape changes), and a final
/// ReLU1 after the residual addition.
///
/// DoReFa replaces every activation with a ReLU clipped at 1, so the
/// residual sum (bounded by 2) is re-bounded to `[0, 1]` before feeding
/// the next quantized layer.
///
/// # Example
///
/// ```
/// use ams_models::{BasicBlock, HardwareConfig};
/// use ams_nn::{Layer, Mode};
/// use ams_tensor::{rng, ExecCtx, Tensor};
///
/// let mut r = rng::seeded(0);
/// let mut blk = BasicBlock::new("s2.b0", 8, 16, 2, &HardwareConfig::fp32(), 3, &mut r);
/// let y = blk.forward(&ExecCtx::serial(), &Tensor::zeros(&[1, 8, 8, 8]), Mode::Eval);
/// assert_eq!(y.dims(), &[1, 16, 4, 4]);
/// ```
#[derive(Debug)]
pub struct BasicBlock {
    name: String,
    conv1: QConv2d,
    bn1: BatchNorm2d,
    act1: ClippedRelu,
    conv2: QConv2d,
    bn2: BatchNorm2d,
    down: Option<(QConv2d, BatchNorm2d)>,
    act2: ClippedRelu,
}

impl BasicBlock {
    /// Number of noise-stream indices a block consumes (conv1, conv2, and
    /// a possible downsample conv — reserved unconditionally so indices
    /// stay stable across configurations).
    pub const NOISE_SLOTS: u64 = 3;

    /// Creates a block mapping `c_in` channels to `c_out` with the given
    /// stride on its first convolution. A projection shortcut is inserted
    /// whenever the stride is not 1 or the channel count changes.
    ///
    /// # Panics
    ///
    /// Panics if any channel count or the stride is zero.
    pub fn new<R: Rng + ?Sized>(
        name: impl Into<String>,
        c_in: usize,
        c_out: usize,
        stride: usize,
        hw: &HardwareConfig,
        noise_base: u64,
        init_rng: &mut R,
    ) -> Self {
        let name = name.into();
        let conv1 = QConv2d::new(
            format!("{name}.conv1"),
            c_in,
            c_out,
            3,
            stride,
            1,
            hw,
            InputKind::Unit,
            noise_base,
            init_rng,
        );
        let bn1 = BatchNorm2d::new(format!("{name}.bn1"), c_out);
        let conv2 = QConv2d::new(
            format!("{name}.conv2"),
            c_out,
            c_out,
            3,
            1,
            1,
            hw,
            InputKind::Unit,
            noise_base + 1,
            init_rng,
        );
        let bn2 = BatchNorm2d::new(format!("{name}.bn2"), c_out);
        let down = (stride != 1 || c_in != c_out).then(|| {
            (
                QConv2d::new(
                    format!("{name}.down"),
                    c_in,
                    c_out,
                    1,
                    stride,
                    0,
                    hw,
                    InputKind::Unit,
                    noise_base + 2,
                    init_rng,
                ),
                BatchNorm2d::new(format!("{name}.bn_down"), c_out),
            )
        });
        BasicBlock {
            act1: ClippedRelu::new(format!("{name}.act1")),
            act2: ClippedRelu::new(format!("{name}.act2")),
            name,
            conv1,
            bn1,
            conv2,
            bn2,
            down,
        }
    }

    /// Visits the block's quantized convolutions (probing, reseeding).
    pub fn for_each_qconv(&mut self, f: &mut dyn FnMut(&mut QConv2d)) {
        f(&mut self.conv1);
        f(&mut self.conv2);
        if let Some((c, _)) = &mut self.down {
            f(c);
        }
    }
}

impl Layer for BasicBlock {
    fn forward(&mut self, ctx: &ExecCtx, input: &Tensor, mode: Mode) -> Tensor {
        let mut main = self.conv1.forward(ctx, input, mode);
        main = self.bn1.forward(ctx, &main, mode);
        main = self.act1.forward(ctx, &main, mode);
        main = self.conv2.forward(ctx, &main, mode);
        main = self.bn2.forward(ctx, &main, mode);
        let skip = match &mut self.down {
            Some((conv, bn)) => {
                let s = conv.forward(ctx, input, mode);
                bn.forward(ctx, &s, mode)
            }
            None => input.clone(),
        };
        main.add_assign(&skip);
        self.act2.forward(ctx, &main, mode)
    }

    fn backward(&mut self, ctx: &ExecCtx, grad_output: &Tensor) -> Tensor {
        let g = self.act2.backward(ctx, grad_output);
        // Main path.
        let mut gm = self.bn2.backward(ctx, &g);
        gm = self.conv2.backward(ctx, &gm);
        gm = self.act1.backward(ctx, &gm);
        gm = self.bn1.backward(ctx, &gm);
        gm = self.conv1.backward(ctx, &gm);
        // Skip path.
        let gs = match &mut self.down {
            Some((conv, bn)) => {
                let gd = bn.backward(ctx, &g);
                conv.backward(ctx, &gd)
            }
            None => g,
        };
        gm.add(&gs)
    }

    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.conv1.for_each_param(f);
        self.bn1.for_each_param(f);
        self.conv2.for_each_param(f);
        self.bn2.for_each_param(f);
        if let Some((c, b)) = &mut self.down {
            c.for_each_param(f);
            b.for_each_param(f);
        }
    }

    fn for_each_state(&mut self, f: &mut dyn FnMut(&str, &mut Tensor)) {
        self.conv1.for_each_state(f);
        self.bn1.for_each_state(f);
        self.conv2.for_each_state(f);
        self.bn2.for_each_state(f);
        if let Some((c, b)) = &mut self.down {
            c.for_each_state(f);
            b.for_each_state(f);
        }
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
    fn identity_block_shape_and_projection_block_shape() {
        let mut r = rng::seeded(0);
        let hw = HardwareConfig::fp32();
        let mut idb = BasicBlock::new("b", 8, 8, 1, &hw, 0, &mut r);
        assert!(idb.down.is_none());
        let y = idb.forward(
            &ExecCtx::serial(),
            &Tensor::zeros(&[2, 8, 6, 6]),
            Mode::Eval,
        );
        assert_eq!(y.dims(), &[2, 8, 6, 6]);

        let mut pb = BasicBlock::new("b2", 8, 16, 2, &hw, 3, &mut r);
        assert!(pb.down.is_some());
        let y = pb.forward(
            &ExecCtx::serial(),
            &Tensor::zeros(&[2, 8, 6, 6]),
            Mode::Eval,
        );
        assert_eq!(y.dims(), &[2, 16, 3, 3]);
    }

    #[test]
    fn output_bounded_by_relu1() {
        let mut r = rng::seeded(1);
        let hw = HardwareConfig::fp32();
        let mut blk = BasicBlock::new("b", 4, 4, 1, &hw, 0, &mut r);
        let mut x = Tensor::zeros(&[2, 4, 5, 5]);
        rng::fill_uniform(&mut x, 0.0, 1.0, &mut r);
        let y = blk.forward(&ExecCtx::serial(), &x, Mode::Eval);
        assert!(y.min() >= 0.0 && y.max() <= 1.0);
    }

    #[test]
    fn backward_produces_input_gradient_both_paths() {
        let mut r = rng::seeded(2);
        let hw = HardwareConfig::fp32();
        let mut blk = BasicBlock::new("b", 4, 8, 2, &hw, 0, &mut r);
        let mut x = Tensor::zeros(&[1, 4, 6, 6]);
        rng::fill_uniform(&mut x, 0.2, 0.8, &mut r);
        let y = blk.forward(&ExecCtx::serial(), &x, Mode::Train);
        let dx = blk.backward(&ExecCtx::serial(), &Tensor::ones(y.dims()));
        assert_eq!(dx.dims(), x.dims());
        assert!(dx.max_abs() > 0.0);
        // All three convolutions received gradient.
        let mut grads = Vec::new();
        blk.for_each_qconv(&mut |c| grads.push(c.weight().grad.max_abs()));
        assert_eq!(grads.len(), 3);
        assert!(grads.iter().all(|&g| g > 0.0), "{grads:?}");
    }

    #[test]
    fn gradcheck_through_block() {
        // Finite-difference check of dL/dx through the whole block (batch
        // statistics make this a joint function; keep the batch tiny).
        let mut r = rng::seeded(3);
        let hw = HardwareConfig::fp32();
        let mut x = Tensor::zeros(&[2, 2, 4, 4]);
        rng::fill_uniform(&mut x, 0.25, 0.75, &mut r);

        let loss_of = |x_: &Tensor| -> f32 {
            let mut r2 = rng::seeded(3);
            rng::fill_uniform(&mut Tensor::zeros(&[2, 2, 4, 4]), 0.0, 1.0, &mut r2); // burn the same init draws
            let mut blk = BasicBlock::new("b", 2, 2, 1, &hw, 0, &mut r2);
            let y = blk.forward(&ExecCtx::serial(), x_, Mode::Train);
            0.5 * y.data().iter().map(|v| v * v).sum::<f32>()
        };

        let mut r2 = rng::seeded(3);
        rng::fill_uniform(&mut Tensor::zeros(&[2, 2, 4, 4]), 0.0, 1.0, &mut r2);
        let mut blk = BasicBlock::new("b", 2, 2, 1, &hw, 0, &mut r2);
        let y = blk.forward(&ExecCtx::serial(), &x, Mode::Train);
        let dx = blk.backward(&ExecCtx::serial(), &y);

        let eps = 1e-2;
        let mut checked = 0;
        for i in [3usize, 20, 40] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss_of(&xp) - loss_of(&xm)) / (2.0 * eps);
            let ana = dx.data()[i];
            // ReLU-1 masks make some coordinates non-smooth; only check
            // coordinates with meaningful agreement scale.
            if num.abs() > 1e-3 || ana.abs() > 1e-3 {
                assert!(
                    (num - ana).abs() < 0.15 * (1.0 + ana.abs()),
                    "dx[{i}]: {num} vs {ana}"
                );
                checked += 1;
            }
        }
        assert!(checked > 0, "no checkable coordinates");
    }

    #[test]
    fn state_names_are_hierarchical() {
        let mut r = rng::seeded(4);
        let hw = HardwareConfig::fp32();
        let mut blk = BasicBlock::new("s1.b0", 4, 8, 2, &hw, 0, &mut r);
        let mut names = Vec::new();
        blk.for_each_state(&mut |n, _| names.push(n.to_string()));
        assert!(names.contains(&"s1.b0.conv1.weight".to_string()));
        assert!(names.contains(&"s1.b0.bn2.running_var".to_string()));
        assert!(names.contains(&"s1.b0.down.weight".to_string()));
    }
}
