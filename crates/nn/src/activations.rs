//! DoReFa's clipped activation layer.

use ams_tensor::{ExecCtx, Tensor};

use crate::layer::{Layer, Mode};

/// DoReFa's bounded activation, `y = clamp(x, 0, 1)`.
///
/// The paper (§2) notes that DoReFa "replaces every activation function with
/// a ReLU that clips at 1", which bounds the next layer's activations so
/// they can be quantized to `B_X` bits without a scale search. The gradient
/// passes only where `0 < x < 1`.
///
/// # Example
///
/// ```
/// use ams_nn::{ClippedRelu, Layer, Mode};
/// use ams_tensor::{ExecCtx, Tensor};
///
/// let mut act = ClippedRelu::new("relu1");
/// let x = Tensor::from_vec(&[3], vec![-0.5, 0.5, 1.5]).unwrap();
/// assert_eq!(act.forward(&ExecCtx::serial(), &x, Mode::Eval).data(), &[0.0, 0.5, 1.0]);
/// ```
#[derive(Debug)]
pub struct ClippedRelu {
    name: String,
    mask: Option<Vec<bool>>,
}

impl ClippedRelu {
    /// Creates a clipped-ReLU (ReLU-1) layer.
    pub fn new(name: impl Into<String>) -> Self {
        ClippedRelu {
            name: name.into(),
            mask: None,
        }
    }
}

impl Layer for ClippedRelu {
    fn forward(&mut self, _ctx: &ExecCtx, input: &Tensor, mode: Mode) -> Tensor {
        if mode.is_train() {
            self.mask = Some(input.data().iter().map(|&x| x > 0.0 && x < 1.0).collect());
        }
        input.map(|x| x.clamp(0.0, 1.0))
    }

    fn backward(&mut self, _ctx: &ExecCtx, grad_output: &Tensor) -> Tensor {
        let mask = self
            .mask
            .as_ref()
            .expect("ClippedRelu::backward without a Train-mode forward");
        assert_eq!(
            mask.len(),
            grad_output.len(),
            "ClippedRelu::backward: shape changed since forward"
        );
        let data = grad_output
            .data()
            .iter()
            .zip(mask)
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        Tensor::from_vec(grad_output.dims(), data).expect("mask preserves length")
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clipped_relu_gradient_masks_both_sides() {
        let mut act = ClippedRelu::new("r1");
        let x = Tensor::from_vec(&[5], vec![-0.5, 0.25, 0.75, 1.0, 2.0]).unwrap();
        act.forward(&ExecCtx::serial(), &x, Mode::Train);
        let dx = act.backward(&ExecCtx::serial(), &Tensor::ones(&[5]));
        assert_eq!(dx.data(), &[0.0, 1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn clipped_output_is_bounded() {
        let mut act = ClippedRelu::new("r1");
        let x = Tensor::from_vec(&[3], vec![-10.0, 0.3, 42.0]).unwrap();
        let y = act.forward(&ExecCtx::serial(), &x, Mode::Eval);
        assert!(y.min() >= 0.0 && y.max() <= 1.0);
    }
}
