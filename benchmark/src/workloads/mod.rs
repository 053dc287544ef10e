//! The five workloads. Each has `run` (end-to-end metrics, no tracing)
//! and `trace` (spans around every layer's public entry point).

pub mod batch;
pub mod exact;
pub mod fresh;
pub mod ivf;
pub mod train;

use crate::report::Report;
use crate::stats;
use gb_serve::{RecommendService, ServeEngine, ServiceConfig};
use std::time::Instant;

/// The engine's IVF build seed (`gb_serve` keeps it private), mirrored
/// so an index the traced run builds directly is the one served.
pub const IVF_SEED: u64 = 0x1BF5_2026;

/// The service every online workload puts in front of its engine: one
/// worker beside the one client, everything else default.
pub fn one_worker_service<E: ServeEngine>(engine: E) -> RecommendService<E> {
    RecommendService::with_config(
        engine,
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    )
}

/// Puts a closed-loop workload's client and worker on one CPU (see
/// [`crate::host::pin_to_one_cpu`]) and says so in the run's output. Call
/// it before the service is built: the worker inherits the confinement.
pub fn share_one_cpu(r: &mut Report) {
    match crate::host::pin_to_one_cpu() {
        Some(cpu) => r.note(format!("client and worker confined to cpu {cpu}")),
        None => r.note("client and worker not confined to one cpu (refused)"),
    }
}

/// Runnable threads the box gives us; load never exceeds it.
pub fn threads_for(max: usize) -> usize {
    crate::host::nproc().min(max).max(1)
}

/// Sets a workload up several times over and returns the last instance
/// with the median set-up time: at least three times, and up to 25 while
/// a second has not passed, so a 10 ms set-up is not judged on one reading.
/// Each instance is dropped before the next is built, so peak memory
/// holds one.
pub fn repeat_setup<T>(smoke: bool, mut build: impl FnMut() -> T) -> (T, f64, usize) {
    let (min_reps, max_reps) = if smoke { (1, 1) } else { (3, 25) };
    let started = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < min_reps
        || (times.len() < max_reps && started.elapsed().as_secs_f64() < 1.0)
    {
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    let built = last.expect("set-up ran at least once");
    (built, stats::median(&times), times.len())
}

/// The low percentile of an operation's latency that the end-to-end
/// metric reports. This box is a small VM on a shared host whose
/// neighbours delay a varying share of operations by a varying amount:
/// over six back-to-back runs of one binary the median reply of
/// `serve_exact` ranged 569–869 µs while its 10th percentile stayed
/// within 515–592 µs. Interference only ever adds time, so the fast end
/// of the distribution is the part that measures the program.
pub const QUIET_PERCENTILE: f64 = 10.0;

/// Latencies of a timed loop of operations issued by one caller.
#[derive(Default)]
pub struct Samples {
    /// Latency of every sampled operation, µs, in issue order.
    pub lat_us: Vec<f64>,
    /// Operations issued, sampled or not.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Wall time of the whole loop.
    pub wall_s: f64,
}

impl Samples {
    /// Records one sampled operation that ran from `start` to `end`.
    pub fn push(&mut self, start: Instant, end: Instant, ok: bool) {
        self.lat_us
            .push(end.duration_since(start).as_secs_f64() * 1e6);
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn n(&self) -> usize {
        self.lat_us.len()
    }

    /// Nearest-rank percentile `p` of the sampled latencies.
    pub fn percentile_us(&self, p: f64) -> f64 {
        let mut sorted = self.lat_us.clone();
        stats::sort(&mut sorted);
        stats::percentile(&sorted, p)
    }

    /// `(tail latency, percentile it is)`: `want` when at least ten
    /// samples lie beyond it, else the highest step below that has them.
    pub fn tail_us(&self, want: f64) -> (f64, f64) {
        let p = stats::tail_percentile(self.n(), want);
        (self.percentile_us(p), p)
    }
}

/// A closed loop: one caller, the next operation issued only when the
/// previous one has returned, for `seconds`. `op` returns whether it
/// succeeded and whether its latency belongs to the sampled population.
pub fn closed_loop_sampled(seconds: f64, mut op: impl FnMut() -> (bool, bool)) -> Samples {
    let mut s = Samples::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let (ok, sampled) = op();
        if sampled {
            s.push(t, Instant::now(), ok);
        } else {
            s.attempted += 1;
            s.failed += u64::from(!ok);
        }
    }
    s.wall_s = start.elapsed().as_secs_f64();
    s
}

/// [`closed_loop_sampled`] with every operation sampled.
pub fn closed_loop(seconds: f64, mut op: impl FnMut() -> bool) -> Samples {
    closed_loop_sampled(seconds, || (op(), true))
}

/// Reports a timed loop's end-to-end latency metric, notes its work
/// rate (operations times `units_per_op`) and the rest of its latency
/// distribution beside the phase, and counts its operations.
pub fn report_loop(r: &mut Report, phase: &str, s: &Samples, units_per_op: f64, want_tail: f64) {
    let (tail, p) = s.tail_us(want_tail);
    r.set("op_p10_us", s.percentile_us(QUIET_PERCENTILE), s.n());
    r.phase(
        &format!(
            "{phase}: {:.1}/s, p50 {:.0} us, p{p} {tail:.0} us",
            s.attempted as f64 * units_per_op / s.wall_s,
            s.percentile_us(50.0),
        ),
        s.wall_s,
        s.n(),
    );
    r.attempted += s.attempted;
    r.failed += s.failed;
}

/// The traced run's account of the workload's operation as everyone
/// saw it, not only in the quiet moments: operations (times
/// `units_per_op`) per second of latency, the median, and the `want`
/// percentile when ten samples lie beyond it (else the highest step
/// below that has them).
pub fn set_op_stats(r: &mut Report, lat_us: &[f64], units_per_op: f64, want: f64) {
    let mut sorted = lat_us.to_vec();
    stats::sort(&mut sorted);
    let n = sorted.len();
    let total_s = sorted.iter().sum::<f64>() / 1e6;
    let p = stats::tail_percentile(n, want);
    r.set("bench.ops_per_s", n as f64 * units_per_op / total_s, n);
    r.set("bench.op_p50_us", stats::percentile(&sorted, 50.0), n);
    r.set("bench.op_tail_us", stats::percentile(&sorted, p), n);
}

/// Median of `samples`, recorded under `name` when there are any.
pub fn set_median(r: &mut Report, name: &'static str, samples: &[f64]) {
    if !samples.is_empty() {
        r.set(name, stats::median(samples), samples.len());
    }
}
