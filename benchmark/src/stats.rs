//! Order statistics for benchmark samples.
//!
//! Every reported number is a median with its quartiles and sample
//! count; a tail percentile is reported only when at least ten samples
//! lie beyond it (`choosing-metrics` §1), so thirty round samples get a
//! median and quartiles while fifteen thousand probe samples also get a
//! p99.9.

/// Sorted copy of `values` (samples are finite by construction).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`; 0 for an empty slice. (The exclusive method's
/// second cut point is the median for every sample count.)
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// The three quartile cut points, exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them —
/// the driver computes its acceptance spread with that function, so the
/// benchmark must not use a different interpolation. Fewer than two
/// samples have no quartiles; the single value (or 0) is returned thrice.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return [only; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread the acceptance rule and `cupbench diff` both use. `None` with
/// fewer than two samples or a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let [q1, q2, q3] = quartiles(values);
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Nearest-rank percentile (`p` in `0..=100`) of an already sorted slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of the ladder 90 / 99 / 99.9 / 99.99 that
/// still has at least ten of `n` samples beyond it, if any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // Samples beyond the percentile, per ten thousand.
    [(99.99, 1), (99.9, 10), (99.0, 100), (90.0, 1_000)]
        .into_iter()
        .find(|&(_, beyond)| n * beyond >= 10 * 10_000)
        .map(|(p, _)| p)
}

/// Median, quartiles and count of one metric's samples, ready to print.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub count: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let [q1, median, q3] = quartiles(values);
        Summary {
            median,
            q1,
            q3,
            count: values.len(),
        }
    }
}
