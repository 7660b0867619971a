//! Latency statistics computed from raw per-request samples (never from
//! histogram buckets), with the sample count carried next to every
//! percentile.

/// The `q`-quantile (0 < q ≤ 1) of `sorted` by the nearest-rank rule: the
/// smallest sample such that at least `q · n` samples are ≤ it. `None` on
/// an empty slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// 1-based nearest-rank position of the `q`-quantile among `n ≥ 1` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// How many samples lie above the nearest-rank `q`-quantile's position —
/// the samples that decide a tail percentile.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Median of a list of values (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A percentile summary of one sample set.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank 90th percentile.
    pub p90: f64,
    /// Nearest-rank 95th percentile.
    pub p95: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarizes `samples` (any order).
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let at = |q| nearest_rank(&sorted, q).unwrap_or(0.0);
        Summary {
            n: sorted.len(),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50: at(0.50),
            p90: at(0.90),
            p95: at(0.95),
            max: sorted[sorted.len() - 1],
        }
    }

    /// One report line: every percentile with the sample count, and the
    /// number of samples beyond each tail.
    pub fn describe(&self, unit: &str) -> String {
        format!(
            "n={} mean={:.3}{unit} p50={:.3}{unit} p90={:.3}{unit} (beyond={}) p95={:.3}{unit} (beyond={}) max={:.3}{unit}",
            self.n,
            self.mean,
            self.p50,
            self.p90,
            beyond(self.n, 0.90),
            self.p95,
            beyond(self.n, 0.95),
            self.max,
        )
    }
}
