//! Order statistics and rates over latency samples.

use std::time::Instant;

/// Runs `f` once and returns its output with the elapsed wall time in
/// microseconds.
pub fn clock<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now(); // lint:allow(deterministic-time)
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e6)
}

/// Nearest-rank percentile: the smallest sample with at least `q` of
/// the samples at or below it. `q` is in `[0, 1]`; `None` when empty.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.saturating_sub(1).min(sorted.len() - 1)])
}

/// The nearest-rank median.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// Per-window throughput: for each run of `window` consecutive
/// operation times (microseconds), the operations per second of busy
/// time. A trailing partial window is dropped so every rate covers the
/// same amount of work.
pub fn window_rates(times_us: &[f64], window: usize) -> Vec<f64> {
    if window == 0 {
        return Vec::new();
    }
    times_us
        .chunks_exact(window)
        .map(|w| window as f64 * 1e6 / w.iter().sum::<f64>())
        .collect()
}

/// Median over windows of a percentile: the samples are cut into as
/// many runs of at least `window` consecutive samples as they hold (one
/// run when they hold fewer), and the median of the runs' `q`-th
/// percentiles is returned. A burst of slow samples that stays within
/// a minority of the windows moves it little. `None` when empty.
pub fn windowed_percentile(samples: &[f64], window: usize, q: f64) -> Option<f64> {
    let windows = (samples.len() / window.max(1)).max(1);
    let per_window: Vec<f64> = samples
        .chunks_exact(samples.len().max(1) / windows)
        .filter_map(|w| percentile(w, q))
        .collect();
    median(&per_window)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(percentile(&xs, 0.99), Some(99.0));
        assert_eq!(percentile(&xs, 1.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn p99_of_a_thousand_leaves_ten_beyond() {
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        let p = percentile(&xs, 0.99).unwrap_or(f64::NAN);
        assert_eq!(xs.iter().filter(|&&x| x > p).count(), 10);
    }

    #[test]
    fn window_rates_drop_the_partial_tail() {
        // Ten 1 ms operations, windows of four: two full windows.
        let rates = window_rates(&[1000.0; 10], 4);
        assert_eq!(rates, vec![1000.0, 1000.0]);
        // A window with one slow operation has a lower rate.
        let rates = window_rates(&[1000.0, 3000.0, 1000.0, 1000.0], 2);
        assert_eq!(rates, vec![500.0, 1000.0]);
        assert!(window_rates(&[1.0], 0).is_empty());
        assert!(window_rates(&[1.0], 2).is_empty());
    }

    #[test]
    fn windowed_percentile_outvotes_a_burst_in_one_window() {
        // Three windows of 100; the first ends in a burst of 20 slow samples.
        let mut xs: Vec<f64> = (0..300).map(|i| f64::from(i % 100)).collect();
        xs[80..100].fill(1e6);
        assert_eq!(percentile(&xs, 0.99), Some(1e6));
        assert_eq!(windowed_percentile(&xs, 100, 0.99), Some(98.0));
        // Fewer samples than a window: one window over all of them.
        assert_eq!(windowed_percentile(&xs[..50], 100, 0.5), Some(24.0));
        // Samples left over after the last whole window are dropped.
        let mut tail = xs[100..].to_vec();
        tail.push(1e9);
        assert_eq!(windowed_percentile(&tail, 100, 1.0), Some(99.0));
        assert_eq!(windowed_percentile(&[], 100, 0.5), None);
    }

    #[test]
    fn clock_times_the_call() {
        let (v, us) = clock(|| 6 * 7);
        assert_eq!(v, 42);
        assert!(us >= 0.0);
    }
}
