//! Order statistics used by every metric.
//!
//! A timing is reported as its median and as the highest percentile the
//! sample supports: the one with at least [`TAIL_BEYOND`] samples beyond
//! it, capped at the percentile asked for. With 1,000 samples that is
//! p99; with 200 it is p95.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile (`p` in percent) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    // Nearest rank: the smallest value with at least p% of samples at or
    // below it. The epsilon keeps an exact product from rounding up.
    let rank = ((p / 100.0) * n as f64 - 1e-9).ceil().max(1.0) as usize;
    sorted[rank.min(n) - 1]
}

/// The highest percentile not above `want` that leaves at least
/// [`TAIL_BEYOND`] samples beyond it. Below 20 samples no percentile
/// above the median qualifies, and the median is reported.
pub fn supported_percentile(n: usize, want: f64) -> f64 {
    if n <= TAIL_BEYOND {
        return 50.0;
    }
    let max = 100.0 * (n - TAIL_BEYOND) as f64 / n as f64;
    want.min(max).max(50.0)
}

/// A timing summary: sample count, median and supported tail.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Which percentile `tail` is (99 when the sample supports it).
    pub tail_pct: f64,
    /// Value at `tail_pct`.
    pub tail: f64,
}

/// Summarises samples, asking for p`want` as the tail.
pub fn summarize(samples: &[f64], want: f64) -> Summary {
    let mut sorted: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let tail_pct = supported_percentile(n, want);
    Summary {
        n,
        p50: percentile(&sorted, 50.0),
        tail_pct,
        tail: percentile(&sorted, tail_pct),
    }
}

/// Median of a small set of repeated measurements.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples, 50.0).p50
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        for n in [20usize, 21, 57, 100, 200, 999, 1000, 1001, 5000] {
            let sorted: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let pct = supported_percentile(n, 99.0);
            let v = percentile(&sorted, pct);
            let beyond = sorted.iter().filter(|&&x| x > v).count();
            assert!(beyond >= TAIL_BEYOND, "n={n} pct={pct} beyond={beyond}");
            // Highest such percentile: one more rank would leave fewer
            // than ten beyond, unless the cap at p99 bound first.
            if pct < 99.0 {
                assert_eq!(beyond, TAIL_BEYOND, "n={n} pct={pct}");
            }
        }
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(supported_percentile(1000, 99.0), 99.0);
        assert!(supported_percentile(999, 99.0) < 99.0);
        assert_eq!(supported_percentile(200, 99.0), 95.0);
        assert_eq!(supported_percentile(100, 90.0), 90.0);
        assert_eq!(supported_percentile(5, 99.0), 50.0);
    }

    #[test]
    fn nearest_rank_median() {
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
