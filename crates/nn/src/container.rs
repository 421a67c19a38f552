//! The flattening layer between a convolutional trunk and its classifier.

use ams_tensor::{ExecCtx, Tensor};

use crate::layer::{Layer, Mode};

/// Reshapes `(N, C, H, W)` activations to `(N, C·H·W)`.
///
/// # Example
///
/// ```
/// use ams_nn::{Flatten, Layer, Mode};
/// use ams_tensor::{ExecCtx, Tensor};
///
/// let mut flat = Flatten::new("flatten");
/// let y = flat.forward(&ExecCtx::serial(), &Tensor::zeros(&[2, 3, 4, 4]), Mode::Eval);
/// assert_eq!(y.dims(), &[2, 48]);
/// ```
#[derive(Debug)]
pub struct Flatten {
    name: String,
    input_dims: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flattening layer.
    pub fn new(name: impl Into<String>) -> Self {
        Flatten {
            name: name.into(),
            input_dims: None,
        }
    }
}

impl Layer for Flatten {
    fn forward(&mut self, _ctx: &ExecCtx, input: &Tensor, mode: Mode) -> Tensor {
        let n = input.dims()[0];
        let rest: usize = input.dims()[1..].iter().product();
        if mode.is_train() {
            self.input_dims = Some(input.dims().to_vec());
        }
        input.reshaped(&[n, rest])
    }

    fn backward(&mut self, _ctx: &ExecCtx, grad_output: &Tensor) -> Tensor {
        let dims = self
            .input_dims
            .as_ref()
            .expect("Flatten::backward without a Train-mode forward");
        grad_output.reshaped(dims)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_round_trip() {
        let mut flat = Flatten::new("f");
        let x = Tensor::from_vec(&[2, 1, 2, 2], (0..8).map(|i| i as f32).collect()).unwrap();
        let y = flat.forward(&ExecCtx::serial(), &x, Mode::Train);
        assert_eq!(y.dims(), &[2, 4]);
        let back = flat.backward(&ExecCtx::serial(), &y);
        assert_eq!(back, x);
    }
}
