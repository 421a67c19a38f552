//! The owned, contiguous, row-major `f32` tensor.

use serde::{Deserialize, Serialize};

use crate::shape::{ShapeExt, TensorError};

/// An owned n-dimensional `f32` array in contiguous row-major layout.
///
/// `Tensor` is the single numeric container used throughout the workspace:
/// network activations are `(N, C, H, W)` tensors, convolution weights are
/// `(C_out, C_in, K_h, K_w)`, matrices are 2-D, and biases are 1-D.
///
/// # Example
///
/// ```
/// use ams_tensor::Tensor;
///
/// # fn main() -> Result<(), ams_tensor::TensorError> {
/// let mut t = Tensor::zeros(&[2, 2]);
/// t.set(&[0, 1], 3.5);
/// assert_eq!(t.at(&[0, 1]), 3.5);
/// assert_eq!(t.sum(), 3.5);
///
/// let u = Tensor::from_vec(&[4], vec![1.0, 2.0, 3.0, 4.0])?;
/// assert_eq!(u.mean(), 2.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Tensor {
    dims: Vec<usize>,
    data: Vec<f32>,
}

// Hand-written so a serialized tensor whose `data` length disagrees with
// its `dims` (a torn or edited checkpoint), or whose `dims` overflow
// `usize`, fails to load instead of becoming a tensor that breaks the
// first kernel it reaches.
impl Deserialize for Tensor {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let m = serde::expect_map(v, "Tensor")?;
        let dims: Vec<usize> = serde::field(m, "dims")?;
        let bad = |why: String| serde::DeError::custom(format!("Tensor {dims:?}: {why}"));
        if dims
            .iter()
            .try_fold(1usize, |n, &d| n.checked_mul(d))
            .is_none()
        {
            return Err(bad("element count overflows usize".into()));
        }
        Tensor::from_vec(&dims, serde::field(m, "data")?).map_err(|e| bad(e.to_string()))
    }
}

impl Tensor {
    /// Creates a tensor of the given dimensions filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        Self::full(dims, 0.0)
    }

    /// Creates a tensor of the given dimensions filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// Creates a tensor of the given dimensions filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        Tensor {
            dims: dims.to_vec(),
            data: vec![value; dims.numel()],
        }
    }

    /// Creates a 0-dimensional-like tensor holding a single value.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            dims: vec![1],
            data: vec![value],
        }
    }

    /// Creates a tensor from a flat `Vec` in row-major order.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` does not equal
    /// the product of `dims`.
    pub fn from_vec(dims: &[usize], data: Vec<f32>) -> Result<Self, TensorError> {
        let expected = dims.numel();
        if data.len() != expected {
            return Err(TensorError::LengthMismatch {
                expected,
                got: data.len(),
            });
        }
        Ok(Tensor {
            dims: dims.to_vec(),
            data,
        })
    }

    /// Creates a tensor with the same dimensions as `self`, filled with zeros.
    pub fn zeros_like(&self) -> Self {
        Tensor::zeros(&self.dims)
    }

    /// The dimension list of this tensor.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major storage.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major storage.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its dimensions and storage.
    pub fn into_parts(self) -> (Vec<usize>, Vec<f32>) {
        (self.dims, self.data)
    }

    /// Flat row-major offset of a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if `idx.len() != self.rank()` or any index is out of bounds.
    pub fn offset(&self, idx: &[usize]) -> usize {
        assert_eq!(
            idx.len(),
            self.dims.len(),
            "index rank {} != tensor rank {}",
            idx.len(),
            self.dims.len()
        );
        let mut off = 0;
        for (i, (&ix, &d)) in idx.iter().zip(&self.dims).enumerate() {
            assert!(ix < d, "index {ix} out of bounds for dim {i} of size {d}");
            off = off * d + ix;
        }
        off
    }

    /// Element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds (see [`Tensor::offset`]).
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.offset(idx)]
    }

    /// Sets the element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds (see [`Tensor::offset`]).
    pub fn set(&mut self, idx: &[usize], value: f32) {
        let off = self.offset(idx);
        self.data[off] = value;
    }

    /// Returns a tensor with the same data viewed under new dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the element counts differ.
    pub fn reshape(self, dims: &[usize]) -> Result<Self, TensorError> {
        let expected = dims.numel();
        if self.data.len() != expected {
            return Err(TensorError::LengthMismatch {
                expected,
                got: self.data.len(),
            });
        }
        Ok(Tensor {
            dims: dims.to_vec(),
            data: self.data,
        })
    }

    /// Like [`Tensor::reshape`] but borrowing: clones only the dimension
    /// list, not the data, when called on an owned value via `clone()`.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshaped(&self, dims: &[usize]) -> Self {
        self.clone()
            .reshape(dims)
            .expect("reshaped: element count mismatch")
    }
}

impl Default for Tensor {
    /// An empty 1-D tensor (zero elements).
    fn default() -> Self {
        Tensor {
            dims: vec![0],
            data: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let mut t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.len(), 24);
        assert_eq!(t.rank(), 3);
        t.set(&[1, 2, 3], 7.0);
        assert_eq!(t.at(&[1, 2, 3]), 7.0);
        assert_eq!(t.offset(&[1, 2, 3]), 23);
    }

    #[test]
    fn from_vec_validates_length() {
        let err = Tensor::from_vec(&[2, 2], vec![1.0; 3]).unwrap_err();
        assert_eq!(
            err,
            TensorError::LengthMismatch {
                expected: 4,
                got: 3
            }
        );
    }

    #[test]
    fn json_keeps_its_layout_and_rejects_a_torn_tensor() {
        let t = Tensor::from_vec(&[1, 2], vec![0.5, -1.0]).unwrap();
        let json = serde_json::to_string(&t).unwrap();
        assert_eq!(json, r#"{"dims":[1,2],"data":[0.5,-1.0]}"#);
        assert_eq!(serde_json::from_str::<Tensor>(&json).unwrap(), t);
        let torn = r#"{"dims":[2,2],"data":[1.0,2.0,3.0]}"#;
        let err = serde_json::from_str::<Tensor>(torn).unwrap_err();
        assert!(err.to_string().contains("length mismatch"), "{err}");
        let huge = format!(r#"{{"dims":[{0},{0}],"data":[]}}"#, u64::MAX);
        let err = serde_json::from_str::<Tensor>(&huge).unwrap_err();
        assert!(err.to_string().contains("overflows"), "{err}");
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(&[2, 3], (0..6).map(|i| i as f32).collect()).unwrap();
        let r = t.reshape(&[3, 2]).unwrap();
        assert_eq!(r.dims(), &[3, 2]);
        assert_eq!(r.at(&[2, 1]), 5.0);
    }

    #[test]
    fn reshape_rejects_bad_length() {
        let t = Tensor::zeros(&[2, 3]);
        assert!(t.reshape(&[4, 2]).is_err());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn indexing_out_of_bounds_panics() {
        let t = Tensor::zeros(&[2, 2]);
        let _ = t.at(&[2, 0]);
    }

    #[test]
    fn tensor_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tensor>();
    }

    #[test]
    fn clone_and_eq() {
        let t = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let u = t.clone();
        assert_eq!(t, u);
        assert_ne!(t, Tensor::zeros(&[2, 2]));
    }
}
