//! The four metric primitives: counters, timers, Welford gauges, and
//! fixed-bucket histograms.
//!
//! All primitives are internally synchronized ([`std::sync::atomic`] or a
//! [`std::sync::Mutex`] around a tiny state struct), so one `Arc`'d
//! instance can be recorded into from every worker thread of an
//! `ExecCtx` dispatch without external locking.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::welford::WelfordState;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Accumulated wall time: total nanoseconds and the number of recordings.
///
/// Durations are recorded whole (no sampling); the report derives the mean.
#[derive(Debug, Default)]
pub struct Timer {
    total_nanos: AtomicU64,
    count: AtomicU64,
}

impl Timer {
    /// A timer with nothing recorded.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one duration.
    pub fn record(&self, d: Duration) {
        // u64 nanoseconds overflow after ~584 years of accumulated time.
        self.total_nanos
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Total recorded nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.total_nanos.load(Ordering::Relaxed)
    }

    /// Mean recorded duration in nanoseconds (0 when nothing recorded).
    pub fn mean_nanos(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.total_nanos() as f64 / n as f64
        }
    }
}

/// A streaming mean/variance gauge (a locked [`WelfordState`]).
#[derive(Debug, Default)]
pub struct Gauge {
    state: Mutex<WelfordState>,
}

impl Gauge {
    /// An empty gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn observe(&self, x: f64) {
        self.state
            .lock()
            .expect("gauge lock never poisoned")
            .push(x);
    }

    /// Replaces the summary with the single observation `x`: the gauge
    /// then holds a level (a live count, say) that its mean, min and max
    /// all read.
    pub fn set(&self, x: f64) {
        let mut state = self.state.lock().expect("gauge lock never poisoned");
        *state = WelfordState::new();
        state.push(x);
    }

    /// Merges a pre-accumulated shard (e.g. the per-batch summary a layer
    /// computed locally) in one lock acquisition.
    pub fn merge(&self, shard: &WelfordState) {
        self.state
            .lock()
            .expect("gauge lock never poisoned")
            .merge(shard);
    }

    /// A copy of the current summary.
    pub fn snapshot(&self) -> WelfordState {
        *self.state.lock().expect("gauge lock never poisoned")
    }
}

/// A histogram over fixed, caller-supplied bucket upper bounds.
///
/// An observation `x` lands in the first bucket whose upper bound
/// satisfies `x <= bound`; values above every bound land in the implicit
/// overflow bucket, so `counts()` has `bounds().len() + 1` entries.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<AtomicU64>,
    /// Sum of all observed values, stored as f64 bits (CAS loop on
    /// observe) so `_sum`-style exports don't need a lock.
    sum_bits: AtomicU64,
}

impl Histogram {
    /// Creates a histogram with the given ascending upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "Histogram: empty bucket bounds");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "Histogram: bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Records one observation.
    pub fn observe(&self, x: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| x <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + x).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The configured bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts; the final entry is the overflow bucket.
    pub fn counts(&self) -> Vec<u64> {
        self.counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Total observations across all buckets.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observed values (Prometheus `_sum`). Serving uses this
    /// to cross-check its batches: the batch-size histogram's sum must
    /// equal the number of requests served.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn timer_accumulates_and_averages() {
        let t = Timer::new();
        t.record(Duration::from_nanos(100));
        t.record(Duration::from_nanos(300));
        assert_eq!(t.count(), 2);
        assert_eq!(t.total_nanos(), 400);
        assert!((t.mean_nanos() - 200.0).abs() < 1e-9);
        assert_eq!(Timer::new().mean_nanos(), 0.0);
    }

    #[test]
    fn gauge_set_replaces_earlier_observations() {
        let g = Gauge::new();
        g.observe(1.0);
        g.observe(3.0);
        g.set(2.0);
        let s = g.snapshot();
        assert_eq!((s.count, s.mean, s.min, s.max), (1, 2.0, 2.0, 2.0));
    }

    #[test]
    fn gauge_observe_and_merge_agree() {
        let g = Gauge::new();
        g.observe(1.0);
        g.observe(3.0);
        let shard = WelfordState::from_samples(&[5.0, 7.0]);
        g.merge(&shard);
        let s = g.snapshot();
        assert_eq!(s.count, 4);
        assert!((s.mean - 4.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 7.0);
    }

    #[test]
    fn histogram_buckets_include_overflow() {
        let h = Histogram::new(&[1.0, 2.0]);
        for x in [0.5, 1.0, 1.5, 99.0] {
            h.observe(x);
        }
        assert_eq!(h.counts(), vec![2, 1, 1]);
        assert_eq!(h.total(), 4);
        assert!((h.sum() - 102.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn histogram_rejects_unordered_bounds() {
        Histogram::new(&[2.0, 1.0]);
    }
}
