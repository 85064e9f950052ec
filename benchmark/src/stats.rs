//! Order statistics over timing samples.

/// Median, minimum and quartiles of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile `q` in `[0, 1]` of a sorted slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Summarizes `samples`.
///
/// # Panics
///
/// Panics on an empty slice: every metric the benchmark reports must
/// have been measured at least once.
pub fn summary(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "summary of zero samples");
    let s = sorted(samples);
    Summary {
        n: s.len(),
        min: s[0],
        q1: quantile(&s, 0.25),
        median: quantile(&s, 0.5),
        q3: quantile(&s, 0.75),
    }
}

/// Median of `samples` (see [`summary`]).
pub fn median(samples: &[f64]) -> f64 {
    summary(samples).median
}

/// Nearest-rank percentile `p` in `[0, 100]`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of zero samples");
    let s = sorted(samples);
    let rank = (p / 100.0 * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let s = summary(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.n, s.min, s.q1, s.median, s.q3), (5, 1.0, 2.0, 3.0, 4.0));
        assert_eq!(median(&[1.0, 2.0]), 1.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }
}
