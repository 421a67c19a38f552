//! Labeled image collections.

use ams_tensor::Tensor;
use rand::seq::SliceRandom;
use rand::Rng;

/// A labeled set of images stored as one `(N, C, H, W)` tensor with pixel
/// values in `[0, 1]`.
///
/// # Example
///
/// ```
/// use ams_data::Dataset;
/// use ams_tensor::Tensor;
///
/// let images = Tensor::zeros(&[4, 3, 8, 8]);
/// let ds = Dataset::new(images, vec![0, 1, 0, 1]);
/// assert_eq!(ds.len(), 4);
/// let (batch, labels) = ds.select(&[2, 0]);
/// assert_eq!(batch.dims(), &[2, 3, 8, 8]);
/// assert_eq!(labels, vec![0, 0]);
/// ```
#[derive(Debug, Clone)]
pub struct Dataset {
    images: Tensor,
    labels: Vec<usize>,
}

impl Dataset {
    /// Bundles images and labels.
    ///
    /// # Panics
    ///
    /// Panics if `images` is not 4-D or the label count differs from the
    /// batch dimension.
    pub fn new(images: Tensor, labels: Vec<usize>) -> Self {
        let (n, _, _, _) = images.dims4();
        assert_eq!(
            n,
            labels.len(),
            "Dataset: {n} images but {} labels",
            labels.len()
        );
        Dataset { images, labels }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The full `(N, C, H, W)` image tensor.
    pub fn images(&self) -> &Tensor {
        &self.images
    }

    /// The labels, index-aligned with the images.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Copies the examples at `indices` into a new `(len, C, H, W)` batch.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        let (n, c, h, w) = self.images.dims4();
        let example = c * h * w;
        let mut out = Tensor::zeros(&[indices.len(), c, h, w]);
        let src = self.images.data();
        let dst = out.data_mut();
        let mut labels = Vec::with_capacity(indices.len());
        for (bi, &idx) in indices.iter().enumerate() {
            assert!(
                idx < n,
                "Dataset::select: index {idx} out of bounds for {n} examples"
            );
            dst[bi * example..(bi + 1) * example]
                .copy_from_slice(&src[idx * example..(idx + 1) * example]);
            labels.push(self.labels[idx]);
        }
        (out, labels)
    }

    /// A random subset containing `⌈fraction·N⌉` examples (without
    /// replacement) — used to produce the paper's five independent
    /// validation passes for noise-free configurations.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not within `(0, 1]`.
    pub fn subsample<R: Rng + ?Sized>(&self, fraction: f64, rng: &mut R) -> Dataset {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "subsample: fraction must be in (0, 1]"
        );
        let take = ((self.len() as f64 * fraction).ceil() as usize).clamp(1, self.len());
        let mut indices: Vec<usize> = (0..self.len()).collect();
        indices.shuffle(rng);
        indices.truncate(take);
        let (images, labels) = self.select(&indices);
        Dataset { images, labels }
    }

    /// Returns a copy with each image horizontally mirrored with
    /// probability ½ — the only augmentation the training loop uses.
    pub fn random_flip<R: Rng + ?Sized>(&self, rng: &mut R) -> Dataset {
        let (n, c, h, w) = self.images.dims4();
        let mut images = self.images.clone();
        let data = images.data_mut();
        for ni in 0..n {
            if rng.gen::<f32>() < 0.5 {
                for ci in 0..c {
                    let base = (ni * c + ci) * h * w;
                    for row in 0..h {
                        data[base + row * w..base + (row + 1) * w].reverse();
                    }
                }
            }
        }
        Dataset {
            images,
            labels: self.labels.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_tensor::rng;

    fn toy() -> Dataset {
        let images = Tensor::from_vec(&[3, 1, 1, 2], vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        Dataset::new(images, vec![0, 1, 2])
    }

    #[test]
    fn select_copies_rows() {
        let ds = toy();
        let (batch, labels) = ds.select(&[2, 1]);
        assert_eq!(batch.data(), &[4.0, 5.0, 2.0, 3.0]);
        assert_eq!(labels, vec![2, 1]);
    }

    #[test]
    fn subsample_size_and_membership() {
        let ds = toy();
        let mut r = rng::seeded(0);
        let sub = ds.subsample(0.67, &mut r);
        assert_eq!(sub.len(), 3); // ceil(3 * 0.67) = ceil(2.01) = 3... (0.67*3=2.01)
        let full = ds.subsample(1.0, &mut r);
        assert_eq!(full.len(), 3);
    }

    #[test]
    fn flip_reverses_rows() {
        let ds = toy();
        let mut r = rng::seeded(1);
        // Flip many times; at least one flip must occur and flipped rows
        // are exact reversals.
        let mut saw_flip = false;
        for _ in 0..10 {
            let flipped = ds.random_flip(&mut r);
            for i in 0..ds.len() {
                let orig = &ds.images().data()[i * 2..(i + 1) * 2];
                let new = &flipped.images().data()[i * 2..(i + 1) * 2];
                if new[0] == orig[1] && new[1] == orig[0] && orig[0] != orig[1] {
                    saw_flip = true;
                } else {
                    assert_eq!(new, orig);
                }
            }
        }
        assert!(saw_flip);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn select_validates_indices() {
        toy().select(&[5]);
    }
}
