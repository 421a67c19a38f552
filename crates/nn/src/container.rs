//! Layer containers.

use ams_tensor::{ExecCtx, Tensor};

use crate::layer::{Layer, Mode};
use crate::param::Param;

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

/// An ordered chain of layers applied front to back.
///
/// `Sequential` is itself a [`Layer`], so chains nest.
///
/// # Example
///
/// ```
/// use ams_nn::{ClippedRelu, Layer, Linear, Mode, Sequential};
/// use ams_tensor::{rng, ExecCtx, Tensor};
///
/// let mut r = rng::seeded(0);
/// let mut net = Sequential::new("mlp");
/// net.push(Linear::new("fc1", 8, 8, &mut r));
/// net.push(ClippedRelu::new("act"));
/// net.push(Linear::new("fc2", 8, 2, &mut r));
/// let y = net.forward(&ExecCtx::serial(), &Tensor::zeros(&[1, 8]), Mode::Eval);
/// assert_eq!(y.dims(), &[1, 2]);
/// ```
#[derive(Default)]
pub struct Sequential {
    name: String,
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field("name", &self.name)
            .field(
                "layers",
                &self
                    .layers
                    .iter()
                    .map(|l| l.name().to_string())
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Sequential {
    /// Creates an empty chain.
    pub fn new(name: impl Into<String>) -> Self {
        Sequential {
            name: name.into(),
            layers: Vec::new(),
        }
    }

    /// Appends a layer to the end of the chain.
    pub fn push(&mut self, layer: impl Layer + 'static) {
        self.layers.push(Box::new(layer));
    }

    /// Number of layers in the chain.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Iterates over the contained layers.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Layer> {
        self.layers.iter().map(|b| b.as_ref())
    }
}

impl Layer for Sequential {
    fn forward(&mut self, ctx: &ExecCtx, input: &Tensor, mode: Mode) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(ctx, &x, mode);
        }
        x
    }

    fn backward(&mut self, ctx: &ExecCtx, grad_output: &Tensor) -> Tensor {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(ctx, &g);
        }
        g
    }

    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.for_each_param(f);
        }
    }

    fn for_each_state(&mut self, f: &mut dyn FnMut(&str, &mut Tensor)) {
        for layer in &mut self.layers {
            layer.for_each_state(f);
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Linear, Relu};
    use ams_tensor::rng;

    #[test]
    fn sequential_forward_backward_round_trip() {
        let mut r = rng::seeded(0);
        let mut net = Sequential::new("net");
        net.push(Linear::new("fc1", 4, 6, &mut r));
        net.push(Relu::new("relu"));
        net.push(Linear::new("fc2", 6, 2, &mut r));
        assert_eq!(net.len(), 3);

        let x = Tensor::ones(&[3, 4]);
        let y = net.forward(&ExecCtx::serial(), &x, Mode::Train);
        assert_eq!(y.dims(), &[3, 2]);
        let dx = net.backward(&ExecCtx::serial(), &Tensor::ones(&[3, 2]));
        assert_eq!(dx.dims(), &[3, 4]);

        let mut count = 0;
        net.for_each_param(&mut |_| count += 1);
        assert_eq!(count, 4); // two weights + two biases
    }

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
