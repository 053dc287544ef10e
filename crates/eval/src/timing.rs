//! Wall-clock helpers for the time-efficiency study (Table IV).

use std::time::{Duration, Instant};

/// A simple stopwatch accumulating named phases.
///
/// Table IV reports per-epoch training and testing times; the experiment
/// driver wraps each epoch and each evaluation pass with [`Stopwatch::time`]
/// and reads the means afterwards.
#[derive(Clone, Default, Debug)]
pub struct Stopwatch {
    samples: Vec<Duration>,
}

impl Stopwatch {
    /// Creates an empty stopwatch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Times a closure, recording its duration and returning its result.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.samples.push(start.elapsed());
        out
    }

    /// Records an externally measured duration.
    pub fn record(&mut self, d: Duration) {
        self.samples.push(d);
    }

    /// Number of recorded samples.
    pub fn n_samples(&self) -> usize {
        self.samples.len()
    }

    /// Mean duration in seconds (0.0 when empty).
    pub fn mean_secs(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(Duration::as_secs_f64).sum::<f64>() / self.samples.len() as f64
    }

    /// Total recorded time in seconds.
    pub fn total_secs(&self) -> f64 {
        self.samples.iter().map(Duration::as_secs_f64).sum()
    }

    /// Nearest-rank percentile in seconds (0.0 when empty).
    ///
    /// `p` is in percent: `percentile_secs(50.0)` is the median,
    /// `percentile_secs(99.0)` the p99 the serving latency tables report.
    /// Nearest-rank (no interpolation) keeps every reported value an
    /// actually-observed sample.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile_secs(&self, p: f64) -> f64 {
        assert!(
            (0.0..=100.0).contains(&p),
            "percentile {p} outside [0, 100]"
        );
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut secs: Vec<f64> = self.samples.iter().map(Duration::as_secs_f64).collect();
        Self::select_percentile(&mut secs, p)
    }

    /// Nearest-rank selection over raw seconds. `total_cmp` (not
    /// `partial_cmp().unwrap()`) on purpose: samples recorded through
    /// [`Duration`] are always finite, but the comparator must not be a
    /// NaN panic waiting for the first caller that feeds it derived
    /// floats — under the total order NaN ranks above every finite
    /// value, so finite percentiles are unaffected (regression-tested).
    fn select_percentile(secs: &mut [f64], p: f64) -> f64 {
        let idx = Self::nearest_rank_index(p, secs.len());
        // O(n) selection instead of a full O(n log n) sort: the element
        // landing at `idx` is exactly the one a sort (with the same
        // comparator) would put there, so the result is bit-identical.
        let (_, v, _) = secs.select_nth_unstable_by(idx, f64::total_cmp);
        *v
    }

    /// The 0-based index of the nearest-rank percentile `p` among `n`
    /// ascending samples: `ceil(p·n / 100)` clamped to at least rank 1.
    /// Multiplying first keeps `p·n` exact for an integer `p`; a quotient
    /// within a few ulps of a whole number is that number, so a whole rank
    /// reached through a rounded `p` (`99.9` of 1 000) is not pushed up to
    /// the next sample by `ceil`.
    fn nearest_rank_index(p: f64, n: usize) -> usize {
        let exact = p * n as f64 / 100.0;
        let whole = exact.round();
        let rank = if (exact - whole).abs() <= 4.0 * f64::EPSILON * whole.max(1.0) {
            whole
        } else {
            exact.ceil()
        };
        (rank as usize).max(1) - 1
    }
}

/// Times a closure once, returning `(result, seconds)`.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// One stage's clock in a [`LatencyBreakdown`]: how many durations were
/// recorded and their sum. Constant memory however many queries it sees,
/// so a long-running router's attribution never grows; what it gives up
/// is the per-sample distribution ([`Stopwatch`] keeps that).
#[derive(Clone, Copy, Default, Debug)]
pub struct StageClock {
    n: usize,
    total: Duration,
}

impl StageClock {
    fn record(&mut self, d: Duration) {
        self.n += 1;
        self.total += d;
    }

    /// Number of recorded samples.
    pub fn n_samples(&self) -> usize {
        self.n
    }

    /// Total recorded time in seconds.
    pub fn total_secs(&self) -> f64 {
        self.total.as_secs_f64()
    }
}

/// Per-stage latency attribution: a fixed set of labelled [`StageClock`]s
/// recorded side by side.
///
/// The sharded serving tier records one stage per shard plus a merge
/// stage, so an operator can see *which* shard drags the scatter-gather
/// mean — the per-shard analogue of the per-phase Table IV wall clocks.
#[derive(Clone, Debug)]
pub struct LatencyBreakdown {
    stages: Vec<(String, StageClock)>,
}

impl LatencyBreakdown {
    /// A breakdown with one empty clock per label.
    pub fn new(labels: impl IntoIterator<Item = String>) -> Self {
        Self {
            stages: labels
                .into_iter()
                .map(|l| (l, StageClock::default()))
                .collect(),
        }
    }

    /// Number of stages.
    pub fn n_stages(&self) -> usize {
        self.stages.len()
    }

    /// The label of stage `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub fn label(&self, idx: usize) -> &str {
        &self.stages[idx].0
    }

    /// The count and total of stage `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub fn stage(&self, idx: usize) -> &StageClock {
        &self.stages[idx].1
    }

    /// Records one sample for stage `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub fn record(&mut self, idx: usize, d: Duration) {
        self.stages[idx].1.record(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_averages() {
        let mut sw = Stopwatch::new();
        sw.record(Duration::from_millis(100));
        sw.record(Duration::from_millis(300));
        assert_eq!(sw.n_samples(), 2);
        assert!((sw.mean_secs() - 0.2).abs() < 1e-9);
        assert!((sw.total_secs() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn time_returns_closure_result() {
        let mut sw = Stopwatch::new();
        let v = sw.time(|| 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(sw.n_samples(), 1);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut sw = Stopwatch::new();
        // Insert shuffled so the percentile path has to sort.
        for ms in [40u64, 10, 50, 20, 30] {
            sw.record(Duration::from_millis(ms));
        }
        assert!((sw.percentile_secs(50.0) - 0.030).abs() < 1e-9);
        assert!((sw.percentile_secs(99.0) - 0.050).abs() < 1e-9);
        assert!((sw.percentile_secs(100.0) - 0.050).abs() < 1e-9);
        assert!((sw.percentile_secs(0.0) - 0.010).abs() < 1e-9);
        assert!((sw.percentile_secs(20.0) - 0.010).abs() < 1e-9);
        assert!((sw.percentile_secs(20.1) - 0.020).abs() < 1e-9);
        assert_eq!(Stopwatch::new().percentile_secs(99.0), 0.0);
    }

    #[test]
    fn whole_nearest_ranks_are_not_rounded_up() {
        let ascending = |n: u64| {
            let mut sw = Stopwatch::new();
            for ms in (1..=n).rev() {
                sw.record(Duration::from_millis(ms));
            }
            sw
        };
        // Rank 7 of 100, not the 8th sample; rank 999 of 1 000, not the
        // maximum.
        assert!((ascending(100).percentile_secs(7.0) - 0.007).abs() < 1e-9);
        assert!((ascending(1000).percentile_secs(99.9) - 0.999).abs() < 1e-9);
        // Every integer and one-decimal `p` against the rational rank
        // `ceil(p10·n / 1000)`.
        for n in (1..=300).chain([1000, 3000, 9999]) {
            for p10 in 0..=1000usize {
                let p = p10 as f64 / 10.0;
                let rank = (p10 * n).div_ceil(1000).max(1);
                assert_eq!(Stopwatch::nearest_rank_index(p, n), rank - 1, "p{p} of {n}");
            }
        }
    }

    #[test]
    fn nan_samples_no_longer_panic_the_comparators() {
        // Regression: both percentile paths used
        // `partial_cmp().expect("durations are finite")` — correct for
        // `Duration`-sourced samples, but a panic trap for any future
        // caller feeding derived floats. Under `total_cmp` a NaN ranks
        // above +inf, so it parks at the top and finite percentiles
        // below the NaN mass are exactly what they were.
        let mut secs = [1.0f64, f64::NAN, 0.5];
        assert_eq!(Stopwatch::select_percentile(&mut secs, 0.0), 0.5);
        let mut secs = [1.0f64, f64::NAN, 0.5];
        assert_eq!(Stopwatch::select_percentile(&mut secs, 50.0), 1.0);
        let mut secs = [1.0f64, f64::NAN, 0.5];
        assert!(Stopwatch::select_percentile(&mut secs, 100.0).is_nan());
        let mut secs = [f64::INFINITY, f64::NAN];
        assert!(Stopwatch::select_percentile(&mut secs, 100.0).is_nan());
        assert!(Stopwatch::select_percentile(&mut secs, 0.0).is_infinite());
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_percentile_rejected() {
        Stopwatch::new().percentile_secs(101.0);
    }

    #[test]
    fn timed_measures_nonnegative() {
        let (v, secs) = timed(|| "done");
        assert_eq!(v, "done");
        assert!(secs >= 0.0);
    }

    #[test]
    fn breakdown_attributes_samples_to_stages() {
        let mut b = LatencyBreakdown::new(["shard0", "shard1", "merge"].map(String::from));
        assert_eq!(b.n_stages(), 3);
        b.record(0, Duration::from_millis(10));
        b.record(0, Duration::from_millis(30));
        b.record(2, Duration::from_millis(1));
        assert_eq!(b.label(1), "shard1");
        assert_eq!(b.stage(0).n_samples(), 2);
        assert_eq!(b.stage(1).n_samples(), 0);
        assert!((b.stage(0).total_secs() - 0.040).abs() < 1e-9);
        assert_eq!(b.stage(2).n_samples(), 1);
        assert_eq!(b.stage(1).total_secs(), 0.0, "an empty stage sums to 0");
    }
}
