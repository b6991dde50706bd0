//! Order statistics over latency samples.

/// The nearest-rank percentile: the smallest sample such that at least
/// `p` percent of the samples are at or below it. `p` is clamped to
/// `[0, 100]`; an empty slice yields 0.
///
/// Sorts `samples` in place.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    samples[rank(samples.len(), p)]
}

/// Zero-based index of the nearest-rank `p`th percentile among `n`
/// sorted samples (`n > 0`).
pub fn rank(n: usize, p: f64) -> usize {
    let p = p.clamp(0.0, 100.0);
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// The `p`th percentile of samples that a clock reported in whole units
/// (the server's `elapsed_us`), read as grouped data: each sample `v`
/// stands for the interval `[v - 0.5, v + 0.5)`, and the percentile is
/// interpolated linearly inside the interval that holds it. A nearest-rank
/// percentile of such data would read the same integer on every run.
///
/// Sorts `samples` in place; an empty slice yields 0.
pub fn grouped_percentile(samples: &mut [u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let n = samples.len();
    let target = p.clamp(0.0, 100.0) / 100.0 * n as f64;
    let v = samples[rank(n, p)];
    let below = samples.partition_point(|&s| s < v);
    let within = samples.partition_point(|&s| s <= v) - below;
    let frac = ((target - below as f64) / within as f64).clamp(0.0, 1.0);
    v as f64 - 0.5 + frac
}

/// Samples per window of [`windowed_percentile`]: enough that a p99
/// has ten samples beyond it.
pub const WINDOW: usize = 1000;

/// The `p`th percentile of each window of about [`WINDOW`] consecutive
/// samples (taken in the order they were measured; the last partial
/// window is spread over the others), then the median across windows.
/// A stall that hits a few windows moves this less than a percentile of
/// the pooled samples would. Fewer than [`WINDOW`] samples form one
/// window.
pub fn windowed_percentile(series: &[&[f64]], p: f64) -> f64 {
    let mut per_window = Vec::new();
    for samples in series {
        let windows = (samples.len() / WINDOW).max(1);
        let mut start = 0;
        for w in 0..windows {
            let end = samples.len() * (w + 1) / windows;
            let mut win = samples[start..end].to_vec();
            if !win.is_empty() {
                per_window.push(percentile(&mut win, p));
            }
            start = end;
        }
    }
    median(&mut per_window)
}

/// Throughput as the median over windows: `steps` are consecutive
/// (items, seconds) increments in measurement order; each window gathers
/// at least `per_window` items and yields items / seconds. A partial last
/// window is dropped unless it is the only one. Slow spells that cover
/// fewer than half the windows move this less than the overall rate.
pub fn median_rate(steps: &[(f64, f64)], per_window: f64) -> f64 {
    let mut rates = Vec::new();
    let (mut items, mut secs) = (0.0, 0.0);
    for &(n, t) in steps {
        items += n;
        secs += t;
        if items >= per_window && secs > 0.0 {
            rates.push(items / secs);
            (items, secs) = (0.0, 0.0);
        }
    }
    if rates.is_empty() && secs > 0.0 {
        rates.push(items / secs);
    }
    median(&mut rates)
}

/// The median of `values` (mean of the middle pair for an even count);
/// 0 for an empty slice. Sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_percentile_takes_the_median_window() {
        // three windows whose p99 are 10, 20 and 1000: the median is 20
        let mut a: Vec<f64> = vec![1.0; WINDOW * 3];
        a[WINDOW - 1] = 10.0;
        a[2 * WINDOW - 1] = 20.0;
        a[3 * WINDOW - 1] = 1000.0;
        for w in 0..3 {
            // a second high sample per window, so the p99 (rank 990) is it
            for i in 0..10 {
                a[w * WINDOW + i] = a[(w + 1) * WINDOW - 1];
            }
        }
        assert_eq!(windowed_percentile(&[&a], 99.0), 20.0);
        // fewer samples than a window: the plain percentile
        let b = [1.0, 2.0, 3.0];
        assert_eq!(windowed_percentile(&[&b], 50.0), 2.0);
    }

    #[test]
    fn median_rate_takes_the_median_window() {
        // windows of 2 items: 2/1, 2/4 and 2/2 per second; a dropped tail
        let steps = [
            (1.0, 0.5),
            (1.0, 0.5),
            (2.0, 4.0),
            (1.0, 1.0),
            (1.0, 1.0),
            (1.0, 9.0),
        ];
        assert_eq!(median_rate(&steps, 2.0), 1.0);
        // no full window: the partial one
        assert_eq!(median_rate(&[(1.0, 2.0)], 5.0), 0.5);
        assert_eq!(median_rate(&[], 5.0), 0.0);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn grouped_percentile_interpolates_ties() {
        // 4 samples at 10, 4 at 11: the median sits at the 10|11 border
        let mut s = vec![10, 10, 10, 10, 11, 11, 11, 11];
        assert!((grouped_percentile(&mut s, 50.0) - 10.5).abs() < 1e-9);
        let mut one = vec![7];
        assert!((grouped_percentile(&mut one, 50.0) - 7.0).abs() < 1e-9);
        assert_eq!(grouped_percentile(&mut [], 50.0), 0.0);
    }
}
