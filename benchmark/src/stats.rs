//! The harness's own arithmetic: medians and the tail-percentile rule.

/// A copy of `v`, ascending. Timings are never NaN.
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    s
}

/// Median (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The quartile on a metric's quiet side: the first quartile of values
/// where lower is better, the third where higher is (nearest rank on
/// `(n − 1) / 4`, rounded towards the quiet end). On a shared host
/// interference only ever takes time away, in episodes of seconds to a
/// minute; a median flips between the undisturbed and the disturbed level
/// as the disturbed share of a run crosses one half, this quartile only
/// when it crosses three quarters.
pub fn quiet_quartile(v: &[f64], lower_is_better: bool) -> f64 {
    assert!(!v.is_empty(), "quartile of an empty sample");
    let s = sorted(v);
    let k = (s.len() - 1) / 4;
    if lower_is_better {
        s[k]
    } else {
        s[s.len() - 1 - k]
    }
}

/// A tail percentile as actually reported: which percentile the sample
/// could support, and its value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported (≤ the one asked for).
    pub pct: f64,
    /// Its nearest-rank value.
    pub value: f64,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile not above `want_pct` that still has at least
/// [`TAIL_BEYOND`] samples beyond it (nearest rank). A sample too small
/// for that falls back to its median rank.
pub fn tail(sorted: &[f64], want_pct: f64) -> Tail {
    let n = sorted.len();
    assert!(n > 0, "tail of an empty sample");
    let want_idx = ((want_pct / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1;
    let idx = if n > TAIL_BEYOND {
        want_idx.min(n - 1 - TAIL_BEYOND)
    } else {
        (n - 1) / 2
    };
    Tail {
        pct: (idx + 1) as f64 / n as f64 * 100.0,
        value: sorted[idx],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quiet_quartile_sits_on_the_undisturbed_side() {
        // Eleven passes, five of them disturbed: the median is still an
        // undisturbed pass, and so is the quartile with seven disturbed.
        let mut v = vec![1.0, 1.01, 1.02, 1.03, 1.04, 1.05, 1.5, 1.6, 1.7, 1.8, 1.9];
        assert_eq!(quiet_quartile(&v, true), 1.02);
        v[3] = 1.55;
        v[4] = 1.65;
        assert_eq!(quiet_quartile(&v, true), 1.02);
        assert!(median(&v) > 1.5);
        // Higher is better: the third quartile.
        assert_eq!(quiet_quartile(&[40.0, 30.0, 41.0, 42.0, 25.0], false), 41.0);
        assert_eq!(quiet_quartile(&[7.0], true), 7.0);
        assert_eq!(quiet_quartile(&[7.0, 8.0, 9.0], false), 9.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 5000 samples: p99 is rank 4950, with 50 beyond it.
        let big: Vec<f64> = (1..=5000).map(f64::from).collect();
        let t = tail(&big, 99.0);
        assert_eq!(t.value, 4950.0);
        assert!((t.pct - 99.0).abs() < 1e-9);
        // 25 samples: rank 15 is the last one with 10 beyond it.
        let small: Vec<f64> = (1..=25).map(f64::from).collect();
        let t = tail(&small, 99.0);
        assert_eq!(t.value, 15.0);
        assert!((t.pct - 60.0).abs() < 1e-9);
        // 1000 samples: p99 is rank 990, exactly 10 beyond.
        let k: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&k, 99.0).value, 990.0);
        // 500 samples: p99 (rank 495) has only 5 beyond; rank 490 it is.
        let h: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(tail(&h, 99.0).value, 490.0);
    }

    #[test]
    fn tail_of_a_tiny_sample_is_its_median_rank() {
        let t = tail(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], 99.0);
        assert_eq!(t.value, 4.0);
    }
}
