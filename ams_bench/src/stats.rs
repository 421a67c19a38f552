//! Order statistics over timing samples.

/// Linear-interpolated percentile (`p` in `[0, 1]`) of unsorted samples;
/// `None` for an empty set.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = p * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(s[lo] + (s[hi] - s[lo]) * (pos - pos.floor()))
}

/// The median of unsorted samples; `None` for an empty set.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// `k` near-equal consecutive index ranges covering `0..n` (fewer when
/// `n < k`, none when `n == 0`).
fn windows(n: usize, k: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    let k = k.min(n);
    (0..k).map(move |i| i * n / k..(i + 1) * n / k)
}

/// The lowest, over `k` consecutive equal-count windows, of each window's
/// `p` percentile: the least-disturbed window's latency. A neighbour on
/// a shared host only ever adds time, so this moves far less than a
/// whole-run percentile when one slows part of a run, while a slowdown
/// of the program itself shows in every window.
pub fn best_window_percentile(samples: &[f64], p: f64, k: usize) -> Option<f64> {
    windows(samples.len(), k)
        .filter_map(|r| percentile(&samples[r], p))
        .min_by(f64::total_cmp)
}

/// The highest, over `k` consecutive equal-count windows, of each
/// window's throughput. `progress` holds, in completion order, when each
/// unit of work finished (seconds since the phase started) and how many
/// items it completed; a window spans from the previous window's last
/// completion (or the phase start) to its own, so gaps between units
/// count.
pub fn best_window_throughput(progress: &[(f64, usize)], k: usize) -> Option<f64> {
    windows(progress.len(), k)
        .filter_map(|r| {
            let from = if r.start == 0 {
                0.0
            } else {
                progress[r.start - 1].0
            };
            let to = progress[r.end - 1].0;
            let items: usize = progress[r].iter().map(|&(_, n)| n).sum();
            (to > from).then(|| items as f64 / (to - from))
        })
        .max_by(f64::total_cmp)
}

/// First and third quartiles by Python's `statistics.quantiles(data,
/// n=4)` (the default "exclusive" method), so the comparator's spreads
/// match the ones the acceptance rule computes. Needs two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let ld = samples.len();
    if ld < 2 {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = 4usize;
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
    };
    Some((q(1), q(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn best_windows_ignore_a_slow_minority() {
        // Ten windows of ten 1 ms operations; two windows run 3x slower.
        let mut ms = vec![1.0; 100];
        ms[20..40].iter_mut().for_each(|v| *v = 3.0);
        assert_eq!(best_window_percentile(&ms, 0.9, 10), Some(1.0));
        let mut t = 0.0;
        let progress: Vec<(f64, usize)> = ms
            .iter()
            .map(|v| {
                t += v / 1e3;
                (t, 2)
            })
            .collect();
        let rate = best_window_throughput(&progress, 10).unwrap();
        assert!((rate - 2000.0).abs() < 1e-6, "{rate}");
        assert_eq!(best_window_throughput(&[], 10), None);
        // A program slowdown in every window moves both in full.
        let slow: Vec<f64> = ms.iter().map(|v| v * 2.0).collect();
        assert_eq!(best_window_percentile(&slow, 0.9, 10), Some(2.0));
    }

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(4.0));
        assert_eq!(median(&[]), None);
    }
}
