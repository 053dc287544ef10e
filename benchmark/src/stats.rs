//! Order statistics for the report: nearest-rank percentiles, the
//! "at least ten samples beyond" tail rule, and the quartile spread the
//! repeatability gate uses.

/// Percentile steps the tail rule may fall back through, ascending.
const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Tail samples a percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Sorts `samples` ascending (NaN-safe total order).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.total_cmp(b));
}

/// Nearest-rank percentile `p` (0–100] of ascending `sorted`; 0.0 when
/// there are no samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => sorted[rank(n, p) - 1],
    }
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond percentile `p` among `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The tail percentile to report for `n` samples when the workload
/// wants `want`: `want` itself if at least [`MIN_BEYOND`] samples lie
/// beyond it, else the highest ladder step below it that has them, else
/// the median.
pub fn tail_percentile(n: usize, want: f64) -> f64 {
    if beyond(n, want) >= MIN_BEYOND {
        return want;
    }
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| p < want && beyond(n, p) >= MIN_BEYOND)
        .unwrap_or(50.0)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives
/// them — the acceptance gate computes its spread with that function.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut data = values.to_vec();
    sort(&mut data);
    let ld = data.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile distance as a share of the median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Median as Python's `statistics.median` gives it (mean of the two
/// middle values for an even count); 0.0 when there are no values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // 150 lags: p90 leaves 15 beyond, p95 only 7.
        assert_eq!(beyond(150, 90.0), 15);
        assert_eq!(beyond(150, 95.0), 7);
        assert_eq!(tail_percentile(150, 90.0), 90.0);
        assert_eq!(tail_percentile(150, 99.0), 90.0);
        // 1000 replies support p99 exactly (10 beyond), 999 do not.
        assert_eq!(tail_percentile(1000, 99.0), 99.0);
        assert_eq!(tail_percentile(999, 99.0), 95.0);
        // A dozen epochs support nothing above the median.
        assert_eq!(tail_percentile(12, 99.0), 50.0);
        assert_eq!(tail_percentile(21, 90.0), 50.0);
        assert_eq!(tail_percentile(40, 90.0), 75.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        let (q1, q3) = quartiles(&[3.0, 1.0]);
        assert!((q1 - 0.5).abs() < 1e-12 && (q3 - 3.5).abs() < 1e-12);
    }
}
