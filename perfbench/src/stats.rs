//! Latency distributions: nearest-rank percentiles and the highest
//! percentile a sample supports.

/// Samples beyond a percentile needed before the benchmark trusts it.
pub const MIN_BEYOND: usize = 10;

/// A sorted sample of one measured quantity.
#[derive(Debug, Clone)]
pub struct Distribution {
    sorted: Vec<f64>,
}

impl Distribution {
    /// Sort `samples` into a distribution. Non-finite samples are a bug in
    /// the caller and panic.
    pub fn new(mut samples: Vec<f64>) -> Self {
        assert!(samples.iter().all(|s| s.is_finite()), "non-finite sample");
        samples.sort_by(f64::total_cmp);
        Self { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// 1-based nearest rank of percentile `pct` (in `(0, 100]`). The small
    /// slack keeps a percentile computed as `rank * 100 / n` on its rank.
    fn rank(&self, pct: f64) -> usize {
        let n = self.sorted.len();
        ((pct / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
    }

    /// Nearest-rank percentile (`0.0` for an empty sample).
    pub fn percentile(&self, pct: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted[self.rank(pct) - 1]
    }

    /// Samples strictly above the rank of percentile `pct`.
    pub fn beyond(&self, pct: f64) -> usize {
        if self.sorted.is_empty() {
            return 0;
        }
        self.sorted.len() - self.rank(pct)
    }

    /// The highest percentile with at least [`MIN_BEYOND`] samples beyond
    /// it, or `None` when the sample is too small for any.
    pub fn highest_supported(&self) -> Option<f64> {
        let n = self.sorted.len();
        (n > MIN_BEYOND).then(|| (n - MIN_BEYOND) as f64 * 100.0 / n as f64)
    }

    /// Median (nearest rank).
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sorted.iter().sum()
    }

    /// One line for the human-readable report: count, median, `pct`, and
    /// the highest supported percentile.
    pub fn describe(&self, unit: &str, pct: f64) -> String {
        let support = match self.highest_supported() {
            Some(p) if p >= pct => {
                format!("p{p:.2} is the highest percentile with {MIN_BEYOND}+ samples beyond")
            }
            Some(p) => format!(
                "WARNING: p{pct} has only {} samples beyond; p{p:.2} is the highest supported",
                self.beyond(pct)
            ),
            None => format!("WARNING: fewer than {} samples", MIN_BEYOND + 1),
        };
        format!(
            "n={} p50={:.4}{unit} p{pct}={:.4}{unit} ({support})",
            self.len(),
            self.median(),
            self.percentile(pct)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Distribution {
        Distribution::new((1..=n).rev().map(|v| v as f64).collect())
    }

    #[test]
    fn nearest_rank_percentiles() {
        let d = one_to(100);
        assert_eq!(d.len(), 100);
        assert_eq!(d.median(), 50.0);
        assert_eq!(d.percentile(90.0), 90.0);
        assert_eq!(d.percentile(99.0), 99.0);
        assert_eq!(d.percentile(100.0), 100.0);
        assert_eq!(d.beyond(90.0), 10);
        assert_eq!(d.beyond(99.0), 1);
        assert_eq!(d.sum(), 5050.0);
    }

    #[test]
    fn highest_supported_percentile_keeps_ten_samples_beyond() {
        assert_eq!(one_to(100).highest_supported(), Some(90.0));
        assert_eq!(one_to(1000).highest_supported(), Some(99.0));
        assert_eq!(one_to(10).highest_supported(), None);
        let d = one_to(120);
        let p = d.highest_supported().unwrap();
        assert!(p > 91.6 && p < 91.7);
        assert_eq!(d.beyond(p), MIN_BEYOND);
        assert!(d.describe("ms", 90.0).starts_with("n=120 "));
        assert!(one_to(50).describe("ms", 90.0).contains("WARNING"));
    }

    #[test]
    fn empty_distribution_reads_zero() {
        let d = Distribution::new(Vec::new());
        assert!(d.is_empty());
        assert_eq!(d.median(), 0.0);
        assert_eq!(d.beyond(50.0), 0);
        assert_eq!(d.highest_supported(), None);
    }
}
