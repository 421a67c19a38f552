//! Streaming mean/variance accumulation (Welford's algorithm) with exact
//! pairwise merging (Chan et al.), so per-thread metric shards combine
//! into the same statistic a single-pass accumulation would produce.

use serde::{Deserialize, Serialize};

/// A mergeable running summary of an observed scalar stream: count, mean,
/// centered second moment (`M2`), and the observed range.
///
/// `push` is Welford's classic update; `merge` is the parallel combination
/// of two disjoint shards. Merging is associative and (up to floating-point
/// rounding on the order of machine epsilon) independent of both the
/// observation order and how the stream was partitioned — the property the
/// per-thread metric shards rely on, verified by proptests in
/// `tests/welford_props.rs`.
///
/// # Example
///
/// ```
/// use ams_obs::WelfordState;
///
/// let mut a = WelfordState::new();
/// let mut b = WelfordState::new();
/// for x in [1.0, 2.0] { a.push(x); }
/// for x in [3.0, 4.0] { b.push(x); }
/// a.merge(&b);
/// assert_eq!(a.count, 4);
/// assert!((a.mean - 2.5).abs() < 1e-12);
/// assert!((a.sample_variance() - 5.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WelfordState {
    /// Number of observations.
    pub count: u64,
    /// Running mean (0 when empty).
    pub mean: f64,
    /// Sum of squared deviations from the mean (`Σ(x−mean)²`).
    pub m2: f64,
    /// Smallest observation (+∞ when empty).
    pub min: f64,
    /// Largest observation (−∞ when empty).
    pub max: f64,
}

impl WelfordState {
    /// The empty summary.
    pub fn new() -> Self {
        WelfordState {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// A summary of a single observation.
    pub fn of(x: f64) -> Self {
        let mut s = Self::new();
        s.push(x);
        s
    }

    /// Summarizes a whole slice in one pass.
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut s = Self::new();
        for &x in samples {
            s.push(x);
        }
        s
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another shard's summary into this one (Chan et al.'s
    /// parallel variance combination). Merging the empty state is a no-op.
    pub fn merge(&mut self, other: &WelfordState) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let (na, nb) = (self.count as f64, other.count as f64);
        let n = na + nb;
        let delta = other.mean - self.mean;
        self.mean += delta * nb / n;
        self.m2 += other.m2 + delta * delta * na * nb / n;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Sample variance (`M2 / (n − 1)`); 0 when fewer than two
    /// observations.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation (√ of [`WelfordState::sample_variance`]).
    pub fn sample_std(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Whether no observation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

impl Default for WelfordState {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_matches_two_pass_formulas() {
        let xs = [1.5, -0.25, 3.0, 0.0, 2.25, -1.0];
        let s = WelfordState::from_samples(&xs);
        let n = xs.len() as f64;
        let mean: f64 = xs.iter().sum::<f64>() / n;
        let var: f64 = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        assert_eq!(s.count, xs.len() as u64);
        assert!((s.mean - mean).abs() < 1e-12);
        assert!((s.sample_variance() - var).abs() < 1e-12);
        assert_eq!(s.min, -1.0);
        assert_eq!(s.max, 3.0);
    }

    #[test]
    fn empty_and_single_sample_are_safe() {
        let empty = WelfordState::new();
        assert!(empty.is_empty());
        assert_eq!(empty.sample_variance(), 0.0);
        let one = WelfordState::of(7.0);
        assert_eq!(one.count, 1);
        assert_eq!(one.mean, 7.0);
        assert_eq!(one.sample_variance(), 0.0);
        assert_eq!(one.min, 7.0);
        assert_eq!(one.max, 7.0);
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let s = WelfordState::from_samples(&[1.0, 2.0, 4.0]);
        let mut a = s;
        a.merge(&WelfordState::new());
        assert_eq!(a, s);
        let mut b = WelfordState::new();
        b.merge(&s);
        assert_eq!(b, s);
    }
}
