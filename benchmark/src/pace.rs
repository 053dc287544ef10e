//! Open-loop pacing: requests are due on a fixed schedule whether or not
//! earlier ones have completed, and each is timed from when it was
//! *due*, so a stall is charged to every request it delayed.

use std::time::{Duration, Instant};

/// A fixed-rate arrival schedule in nanoseconds from its start.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    interval_ns: u64,
}

impl Schedule {
    /// `rate_per_s` arrivals per second (at least one).
    pub fn per_second(rate_per_s: u64) -> Self {
        Self {
            interval_ns: 1_000_000_000 / rate_per_s.max(1),
        }
    }

    /// When request `k` (0-based) is due.
    pub fn due_ns(&self, k: u64) -> u64 {
        k * self.interval_ns
    }
}

/// One open-loop request's clock readings, nanoseconds from the
/// schedule's start.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Timing {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
}

impl Timing {
    /// Latency the user saw: completion minus *due* time.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }

    /// How late the generator sent the request.
    pub fn late_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.due_ns)
    }
}

/// Drives `op` on `schedule` until `stop()` says so: sleeps until each
/// request is due, never skips one (a backlog is sent back to back), and
/// returns every request's timing.
pub fn run_open_loop(
    schedule: Schedule,
    stop: impl Fn() -> bool,
    mut op: impl FnMut(u64),
) -> Vec<Timing> {
    let start = Instant::now();
    let now_ns = |start: Instant| start.elapsed().as_nanos() as u64;
    let mut out = Vec::new();
    for k in 0.. {
        let due_ns = schedule.due_ns(k);
        let now = now_ns(start);
        if now < due_ns {
            std::thread::sleep(Duration::from_nanos(due_ns - now));
        }
        if stop() {
            break;
        }
        let sent_ns = now_ns(start);
        op(k);
        out.push(Timing {
            due_ns,
            sent_ns,
            done_ns: now_ns(start),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_fixed_rate() {
        let s = Schedule::per_second(100);
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(3), 30_000_000);
    }

    #[test]
    fn latency_counts_from_due_time_not_send_time() {
        // A 25 ms stall ahead of this request: it was due at 10 ms, sent
        // at 35 ms, and answered 1 ms later.
        let t = Timing {
            due_ns: 10_000_000,
            sent_ns: 35_000_000,
            done_ns: 36_000_000,
        };
        assert_eq!(t.late_ns(), 25_000_000);
        assert_eq!(t.latency_ns(), 26_000_000);
        // An on-time request is charged only its service time.
        let t = Timing {
            due_ns: 10_000_000,
            sent_ns: 10_000_000,
            done_ns: 10_600_000,
        };
        assert_eq!((t.late_ns(), t.latency_ns()), (0, 600_000));
    }

    #[test]
    fn a_backlog_is_sent_not_dropped() {
        // Ops that take 3 intervals each: every request is still sent,
        // in order, and lateness grows.
        let sent = std::cell::Cell::new(0u64);
        let timings = run_open_loop(
            Schedule::per_second(1000),
            || sent.get() >= 5,
            |k| {
                assert_eq!(k, sent.get());
                sent.set(k + 1);
                std::thread::sleep(Duration::from_millis(3));
            },
        );
        assert_eq!(timings.len(), 5);
        assert!(timings[4].late_ns() > timings[1].late_ns());
        assert!(timings.iter().all(|t| t.latency_ns() >= 3_000_000));
    }
}
