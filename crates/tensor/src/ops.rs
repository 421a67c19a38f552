//! Elementwise arithmetic, reductions and the small set of broadcast
//! operations the network layers need.

use crate::shape::assert_same_dims;
use crate::tensor::Tensor;

impl Tensor {
    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let data = self.data().iter().map(|&x| f(x)).collect();
        Tensor::from_vec(self.dims(), data).expect("map preserves length")
    }

    /// Combines two same-shape tensors elementwise with `f`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_same_dims("zip_map", self.dims(), other.dims());
        let data = self
            .data()
            .iter()
            .zip(other.data())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Tensor::from_vec(self.dims(), data).expect("zip_map preserves length")
    }

    /// `self += other`, elementwise.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_same_dims("add_assign", self.dims(), other.dims());
        for (a, &b) in self.data_mut().iter_mut().zip(other.data()) {
            *a += b;
        }
    }

    /// `self += alpha * other` (axpy), elementwise.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_scaled(&mut self, other: &Tensor, alpha: f32) {
        assert_same_dims("add_scaled", self.dims(), other.dims());
        for (a, &b) in self.data_mut().iter_mut().zip(other.data()) {
            *a += alpha * b;
        }
    }

    /// Multiplies every element by `alpha` in place.
    pub fn scale(&mut self, alpha: f32) {
        for x in self.data_mut() {
            *x *= alpha;
        }
    }

    /// Sets every element to zero (reusing the allocation).
    pub fn fill_zero(&mut self) {
        self.fill(0.0);
    }

    /// Sets every element to `value` (reusing the allocation).
    pub fn fill(&mut self, value: f32) {
        for x in self.data_mut() {
            *x = value;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Mean of all elements.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn mean(&self) -> f32 {
        assert!(!self.is_empty(), "mean of empty tensor");
        self.sum() / self.len() as f32
    }

    /// Maximum element.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn max(&self) -> f32 {
        assert!(!self.is_empty(), "max of empty tensor");
        self.data()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn min(&self) -> f32 {
        assert!(!self.is_empty(), "min of empty tensor");
        self.data().iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Maximum absolute value of any element (`0` for an empty tensor).
    pub fn max_abs(&self) -> f32 {
        self.data().iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Elementwise sum, producing a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference, producing a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product, producing a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a * b)
    }

    /// For a 2-D `(rows, cols)` tensor, the column index of the maximum in
    /// each row (ties resolve to the lowest index).
    ///
    /// This is the top-1 classification decision for a logits matrix.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or has zero columns.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.rank(), 2, "argmax_rows requires a 2-D tensor");
        let (rows, cols) = (self.dims()[0], self.dims()[1]);
        assert!(cols > 0, "argmax_rows requires at least one column");
        let mut out = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = &self.data()[r * cols..(r + 1) * cols];
            let mut best = 0;
            for (j, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = j;
                }
            }
            out.push(best);
        }
        out
    }

    /// Per-channel mean over the `(N, H, W)` axes of an NCHW tensor.
    ///
    /// Returns a length-`C` vector. This is the statistic batch
    /// normalization computes in training mode.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 4-D.
    pub fn channel_means(&self) -> Vec<f32> {
        let (n, c, h, w) = self.dims4();
        let plane = h * w;
        let count = (n * plane) as f32;
        let mut means = vec![0.0f32; c];
        for ni in 0..n {
            for (ci, mean) in means.iter_mut().enumerate() {
                let base = (ni * c + ci) * plane;
                let s: f32 = self.data()[base..base + plane].iter().sum();
                *mean += s;
            }
        }
        for m in &mut means {
            *m /= count;
        }
        means
    }

    /// Per-channel biased variance over the `(N, H, W)` axes of an NCHW
    /// tensor, given precomputed channel means.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 4-D or `means.len() != C`.
    pub fn channel_vars(&self, means: &[f32]) -> Vec<f32> {
        let (n, c, h, w) = self.dims4();
        assert_eq!(
            means.len(),
            c,
            "channel_vars: means length != channel count"
        );
        let plane = h * w;
        let count = (n * plane) as f32;
        let mut vars = vec![0.0f32; c];
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * plane;
                let m = means[ci];
                let s: f32 = self.data()[base..base + plane]
                    .iter()
                    .map(|&x| (x - m) * (x - m))
                    .sum();
                vars[ci] += s;
            }
        }
        for v in &mut vars {
            *v /= count;
        }
        vars
    }

    /// Interprets `self` as 4-D NCHW and returns `(n, c, h, w)`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 4-D.
    pub fn dims4(&self) -> (usize, usize, usize, usize) {
        assert_eq!(
            self.rank(),
            4,
            "expected a 4-D NCHW tensor, got rank {}",
            self.rank()
        );
        let d = self.dims();
        (d[0], d[1], d[2], d[3])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(&[3], vec![1.0, -2.0, 3.0]).unwrap();
        let b = Tensor::from_vec(&[3], vec![0.5, 0.5, 0.5]).unwrap();
        assert_eq!(a.add(&b).data(), &[1.5, -1.5, 3.5]);
        assert_eq!(a.sub(&b).data(), &[0.5, -2.5, 2.5]);
        assert_eq!(a.mul(&b).data(), &[0.5, -1.0, 1.5]);
        assert_eq!(a.map(f32::abs).data(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Tensor::ones(&[2]);
        let g = Tensor::from_vec(&[2], vec![2.0, 4.0]).unwrap();
        a.add_scaled(&g, -0.5);
        assert_eq!(a.data(), &[0.0, -1.0]);
        a.scale(3.0);
        assert_eq!(a.data(), &[0.0, -3.0]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(&[4], vec![1.0, -5.0, 2.0, 2.0]).unwrap();
        assert_eq!(a.sum(), 0.0);
        assert_eq!(a.mean(), 0.0);
        assert_eq!(a.max(), 2.0);
        assert_eq!(a.min(), -5.0);
        assert_eq!(a.max_abs(), 5.0);
    }

    #[test]
    fn argmax_rows_picks_first_max() {
        let t = Tensor::from_vec(&[2, 3], vec![0.0, 2.0, 2.0, 5.0, 1.0, -1.0]).unwrap();
        assert_eq!(t.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn channel_stats_match_manual() {
        // N=2, C=2, H=1, W=2
        let t = Tensor::from_vec(
            &[2, 2, 1, 2],
            vec![
                1.0, 3.0, // n0 c0
                10.0, 10.0, // n0 c1
                5.0, 7.0, // n1 c0
                20.0, 20.0, // n1 c1
            ],
        )
        .unwrap();
        let means = t.channel_means();
        assert_eq!(means, vec![4.0, 15.0]);
        let vars = t.channel_vars(&means);
        // c0: values 1,3,5,7 -> var = mean((x-4)^2) = (9+1+1+9)/4 = 5
        // c1: values 10,10,20,20 -> var = 25
        assert_eq!(vars, vec![5.0, 25.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn mismatched_add_panics() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        let _ = a.add(&b);
    }
}
