//! Order statistics for timing samples.

/// Percentiles considered for the tail figure, highest first.
const TAIL_PERCENTILES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// A sample set reduced to the figures the benchmark reports: the sample
/// count, the median, and the highest percentile with at least
/// [`MIN_TAIL_SAMPLES`] samples beyond it (`None` when there are too few).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Median (mean of the middle two for an even count).
    pub median: f64,
    /// `(percentile, value)` of the reported tail.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises `samples`; `None` for an empty set.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let count = sorted.len();
        let tail = TAIL_PERCENTILES
            .iter()
            .find(|&&p| beyond(count, p) >= MIN_TAIL_SAMPLES)
            .map(|&p| (p, quantile_sorted(&sorted, p / 100.0)));
        Some(Summary {
            count,
            median: quantile_sorted(&sorted, 0.5),
            tail,
        })
    }

    /// One-line rendering: `median <unit> (n=<count>, p<pct> <value>)`.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!(", p{p} {v:.4} {unit}"),
            None => format!(", no percentile has {MIN_TAIL_SAMPLES} samples beyond it"),
        };
        format!("median {:.4} {unit} (n={}{tail})", self.median, self.count)
    }
}

/// Samples strictly above the `p`-th percentile of `count` samples.
fn beyond(count: usize, p: f64) -> usize {
    (count as f64 * (100.0 - p) / 100.0 + 1e-9).floor() as usize
}

/// Linear-interpolation quantile of an ascending, non-empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `samples` (0 for an empty set).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}
