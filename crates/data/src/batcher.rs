//! Shuffled minibatch iteration.

use ams_tensor::Tensor;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::dataset::Dataset;

/// An iterator over shuffled minibatches of a [`Dataset`].
///
/// The final batch may be smaller than `batch_size`; every example appears
/// exactly once per epoch.
///
/// # Example
///
/// ```
/// use ams_data::{Batcher, SynthConfig};
/// use ams_tensor::rng;
///
/// let data = SynthConfig::tiny().generate();
/// let mut r = rng::seeded(3);
/// let total: usize = Batcher::new(&data.train, 10, &mut r)
///     .map(|(_, labels)| labels.len())
///     .sum();
/// assert_eq!(total, data.train.len());
/// ```
#[derive(Debug)]
pub struct Batcher<'a> {
    dataset: &'a Dataset,
    order: Vec<usize>,
    batch_size: usize,
    pos: usize,
}

impl<'a> Batcher<'a> {
    /// Creates a batcher with a freshly shuffled epoch order.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn new<R: Rng + ?Sized>(dataset: &'a Dataset, batch_size: usize, rng: &mut R) -> Self {
        assert!(batch_size > 0, "Batcher: zero batch size");
        let mut order: Vec<usize> = (0..dataset.len()).collect();
        order.shuffle(rng);
        Batcher {
            dataset,
            order,
            batch_size,
            pos: 0,
        }
    }

    /// Creates a batcher that iterates in dataset order (evaluation).
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn sequential(dataset: &'a Dataset, batch_size: usize) -> Self {
        assert!(batch_size > 0, "Batcher: zero batch size");
        Batcher {
            dataset,
            order: (0..dataset.len()).collect(),
            batch_size,
            pos: 0,
        }
    }
}

impl Iterator for Batcher<'_> {
    type Item = (Tensor, Vec<usize>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.order.len() {
            return None;
        }
        let end = (self.pos + self.batch_size).min(self.order.len());
        let batch = self.dataset.select(&self.order[self.pos..end]);
        self.pos = end;
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_tensor::rng;

    fn toy() -> Dataset {
        let images = Tensor::zeros(&[7, 1, 2, 2]);
        Dataset::new(images, (0..7).collect())
    }

    #[test]
    fn covers_every_example_once() {
        let ds = toy();
        let mut r = rng::seeded(0);
        let mut seen: Vec<usize> = Batcher::new(&ds, 3, &mut r).flat_map(|(_, l)| l).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn last_batch_is_partial() {
        let ds = toy();
        let sizes: Vec<usize> = Batcher::sequential(&ds, 3).map(|(_, l)| l.len()).collect();
        assert_eq!(sizes, vec![3, 3, 1]);
    }

    #[test]
    fn sequential_preserves_order() {
        let ds = toy();
        let labels: Vec<usize> = Batcher::sequential(&ds, 4).flat_map(|(_, l)| l).collect();
        assert_eq!(labels, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn oversized_batch_yields_one_full_epoch_batch() {
        // batch_size > len: a single batch holding the whole dataset, for
        // both orderings.
        let ds = toy();
        let mut r = rng::seeded(1);
        for b in [
            Batcher::sequential(&ds, 100),
            Batcher::new(&ds, 100, &mut r),
        ] {
            let batches: Vec<_> = b.collect();
            assert_eq!(batches.len(), 1);
            let (images, labels) = &batches[0];
            assert_eq!(images.dims()[0], ds.len());
            assert_eq!(labels.len(), ds.len());
            let mut sorted = labels.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..7).collect::<Vec<_>>());
        }
    }

    #[test]
    fn final_partial_batch_has_the_remainder() {
        // 7 examples at batch 4 → sizes [4, 3]; the shuffled batcher cuts
        // the same boundary, and the image tensor tracks the label count.
        let ds = toy();
        let mut r = rng::seeded(2);
        for b in [Batcher::sequential(&ds, 4), Batcher::new(&ds, 4, &mut r)] {
            let batches: Vec<_> = b.collect();
            let sizes: Vec<usize> = batches.iter().map(|(_, l)| l.len()).collect();
            assert_eq!(sizes, vec![4, 3]);
            for (images, labels) in &batches {
                assert_eq!(images.dims()[0], labels.len());
            }
        }
    }

    #[test]
    fn shuffled_epoch_is_a_permutation_of_sequential() {
        // Same multiset of indices per epoch, shuffled or not — and the
        // shuffle actually permutes (seeded, so deterministic here).
        let ds = toy();
        let sequential: Vec<usize> = Batcher::sequential(&ds, 3).flat_map(|(_, l)| l).collect();
        let mut r = rng::seeded(3);
        let shuffled: Vec<usize> = Batcher::new(&ds, 3, &mut r).flat_map(|(_, l)| l).collect();
        let mut sorted = shuffled.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, sequential, "same index multiset per epoch");
        assert_ne!(shuffled, sequential, "seed 3 must actually permute");
    }
}
