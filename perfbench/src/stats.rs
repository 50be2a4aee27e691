//! Order statistics and the percentile rule.

/// The `q`-quantile of an ascending slice, linearly interpolated
/// between the two nearest ranks. Returns `NaN` for an empty slice.
#[must_use]
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorts a copy of `values` and returns its `q`-quantile.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// The median of `values`.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Whether percentile `p` (a fraction, e.g. `0.99`) may be reported from
/// `n` samples: at least ten samples must lie beyond it.
#[must_use]
pub fn percentile_allowed(n: usize, p: f64) -> bool {
    (n as f64) * (1.0 - p) >= 10.0 - 1e-9
}

/// The highest of the standard reporting percentiles (p50, p90, p99,
/// p99.9) that `n` samples support, by [`percentile_allowed`].
#[must_use]
pub fn highest_percentile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&p| percentile_allowed(n, p))
}

/// Groups timestamped samples `(t, value)` into consecutive windows of
/// `window` (same unit as `t`) and returns the `q`-quantile of every
/// window holding at least `min_n` samples. The median of these is what
/// the benchmark reports for a latency: a stall or a slow spell of the
/// host moves the windows it falls in, not the median over windows.
#[must_use]
pub fn window_quantiles(points: &[(f64, f64)], window: f64, q: f64, min_n: usize) -> Vec<f64> {
    let mut groups: std::collections::BTreeMap<i64, Vec<f64>> = std::collections::BTreeMap::new();
    for &(t, v) in points {
        groups
            .entry((t / window).floor() as i64)
            .or_default()
            .push(v);
    }
    groups
        .into_values()
        .filter(|g| g.len() >= min_n)
        .map(|g| quantile(&g, q))
        .collect()
}

/// Per window of `window`: the `q`-quantile of the `points` in it over
/// the median of the `refs` in it, for every window holding at least
/// `min_n` points and one reference. The median of these is what the
/// benchmark reports for a latency relative to the host reference: a
/// slow spell of the host moves both parts of a window's ratio.
#[must_use]
pub fn window_ratios(
    points: &[(f64, f64)],
    refs: &[(f64, f64)],
    window: f64,
    q: f64,
    min_n: usize,
) -> Vec<f64> {
    use std::collections::BTreeMap;
    let group = |pts: &[(f64, f64)]| {
        let mut groups: BTreeMap<i64, Vec<f64>> = BTreeMap::new();
        for &(t, v) in pts {
            groups
                .entry((t / window).floor() as i64)
                .or_default()
                .push(v);
        }
        groups
    };
    let refs = group(refs);
    group(points)
        .into_iter()
        .filter(|(_, g)| g.len() >= min_n)
        .filter_map(|(k, g)| Some(quantile(&g, q) / median(refs.get(&k)?)))
        .collect()
}

/// Events per unit time in each whole window of `window` between `0` and
/// `end` (same unit as the event times); a span shorter than one window
/// is one window of its own length.
#[must_use]
pub fn window_rates(times: &[f64], window: f64, end: f64) -> Vec<f64> {
    if end < window {
        return vec![times.len() as f64 / end];
    }
    let whole = (end / window).floor() as usize;
    let mut counts = vec![0usize; whole];
    for &t in times {
        let k = (t / window).floor();
        if k >= 0.0 && (k as usize) < whole {
            counts[k as usize] += 1;
        }
    }
    counts.into_iter().map(|c| c as f64 / window).collect()
}

/// A sample summary: median, quartiles and the sample count.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// The median.
    pub median: f64,
    /// The first quartile.
    pub q1: f64,
    /// The third quartile.
    pub q3: f64,
    /// The number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarises `values`.
    #[must_use]
    pub fn of(values: &[f64]) -> Summary {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            median: quantile_sorted(&sorted, 0.5),
            q1: quantile_sorted(&sorted, 0.25),
            q3: quantile_sorted(&sorted, 0.75),
            n: sorted.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert!(percentile_allowed(1000, 0.99));
        assert!(!percentile_allowed(999, 0.99));
        assert!(percentile_allowed(100, 0.9));
        assert!(!percentile_allowed(99, 0.9));
        assert_eq!(highest_percentile(10_000), Some(0.999));
        assert_eq!(highest_percentile(9_999), Some(0.99));
        assert_eq!(highest_percentile(1_000), Some(0.99));
        assert_eq!(highest_percentile(999), Some(0.9));
        assert_eq!(highest_percentile(100), Some(0.9));
        assert_eq!(highest_percentile(20), Some(0.5));
        assert_eq!(highest_percentile(19), None);
    }

    #[test]
    fn windows_isolate_a_stall() {
        // Ten windows of ten samples at 1.0; one window stalls at 50.0.
        let mut pts: Vec<(f64, f64)> = (0..100).map(|i| (i as f64 / 10.0, 1.0)).collect();
        for p in pts.iter_mut().filter(|p| (3.0..4.0).contains(&p.0)) {
            p.1 = 50.0;
        }
        let w = window_quantiles(&pts, 1.0, 0.9, 10);
        assert_eq!(w.len(), 10);
        assert_eq!(median(&w), 1.0);
        assert!(window_quantiles(&pts, 1.0, 0.9, 11).is_empty());
        let times: Vec<f64> = pts.iter().map(|p| p.0).collect();
        assert_eq!(window_rates(&times, 2.0, 9.5), vec![10.0; 4]);
        assert_eq!(window_rates(&times[..5], 2.0, 0.5), vec![10.0]);
    }

    #[test]
    fn window_ratios_cancel_a_slow_spell() {
        // The host runs twice as slow in window 1: the latency and the
        // reference both double, so every window's ratio is 4.
        let mut lat = Vec::new();
        let mut refs = Vec::new();
        for w in 0..3 {
            let slow = if w == 1 { 2.0 } else { 1.0 };
            for i in 0..10 {
                lat.push((w as f64 + i as f64 / 10.0, 4.0 * slow));
            }
            refs.push((w as f64 + 0.5, slow));
        }
        assert_eq!(window_ratios(&lat, &refs, 1.0, 0.5, 10), vec![4.0; 3]);
        // A window without a reference, or with too few points, drops out.
        assert_eq!(window_ratios(&lat, &refs[..2], 1.0, 0.5, 10).len(), 2);
        assert!(window_ratios(&lat, &refs, 1.0, 0.5, 11).is_empty());
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 3.0, 4.0, 5));
        assert!(quantile(&[], 0.5).is_nan());
    }
}
