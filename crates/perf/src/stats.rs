//! Percentiles that refuse to over-claim, medians, and the quartile rule the
//! acceptance procedure uses.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it (so p50 needs 20 samples, p95 200,
/// p99 1000): a tail read off a handful of samples is noise with a name.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "percentile needs sorted input"
    );
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Sorts a copy and reads the percentile; `(value, sample_count)`.
pub fn percentile_of(samples: &[u64], p: f64) -> (Option<u64>, usize) {
    let mut s = samples.to_vec();
    s.sort_unstable();
    (percentile(&s, p), s.len())
}

/// Median of any sample count (mean of the middle two when even); `None`
/// when empty. For repeated measurements, where every sample is a full
/// measurement rather than one draw from a latency distribution.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    })
}

/// Median of integer samples, rounded down.
pub fn median_u64(values: &[u64]) -> Option<u64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2
    })
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them — the
/// rule the acceptance procedure applies to ten runs. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_fewer_than_ten_beyond() {
        let v: Vec<u64> = (1..=19).collect();
        assert_eq!(
            percentile(&v, 0.50),
            None,
            "19 samples leave 9 beyond the median"
        );
        let v: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile(&v, 0.50), Some(10));
        let v: Vec<u64> = (1..=199).collect();
        assert_eq!(percentile(&v, 0.95), None);
        let v: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile(&v, 0.95), Some(190));
        let v: Vec<u64> = (1..=999).collect();
        assert_eq!(percentile(&v, 0.99), None);
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.99), Some(990));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        let (q1, q3) = quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]).unwrap();
        assert!((q1 - 1.0).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median_u64(&[5, 1, 3]), Some(3));
        assert_eq!(median(&[]), None);
        let s = spread(&(1..=10).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert!((s - 1.0).abs() < 1e-12);
    }
}
