//! Exact order statistics over raw samples (no histogram buckets).

/// Samples that must lie beyond the reported tail.
const TAIL_BEYOND: usize = 10;
/// The highest percentile the tail reports. Above it, on a shared host,
/// the tail measures other tenants' bursts more than this program.
const TAIL_MAX_PCT: f64 = 90.0;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// A latency distribution summarised as median and tail.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub samples: usize,
    pub p50: f64,
    pub tail: f64,
    /// The percentile `tail` reports.
    pub tail_pct: f64,
}

/// Median and tail of `values`. The tail is the highest percentile, up
/// to [`TAIL_MAX_PCT`], that has at least [`TAIL_BEYOND`] samples beyond
/// it, and never below the median. Taking any percentile rather than one
/// from a fixed list keeps the tail from jumping between, say, p75 and
/// p90 when a run completes a few more or fewer operations.
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Summary {
            samples: 0,
            p50: f64::NAN,
            tail: f64::NAN,
            tail_pct: f64::NAN,
        };
    }
    let cap = ((TAIL_MAX_PCT / 100.0) * n as f64).ceil() as usize;
    let rank = n.saturating_sub(TAIL_BEYOND).min(cap).max(n.div_ceil(2));
    Summary {
        samples: n,
        p50: percentile(&v, 50.0),
        tail: v[rank - 1],
        tail_pct: 100.0 * rank as f64 / n as f64,
    }
}
