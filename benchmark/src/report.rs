//! What one run reports: metric lines a person reads, a result file with
//! the host record, and the one-line JSON object the driver reads last.

use crate::host::Host;
use crate::json::{arr, boolean, num, obj, st};
use crate::schema::{unit_of, END_TO_END, PER_LAYER};
use std::path::PathBuf;

/// Where result files, traces and the mmap snapshot go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    // A failure to create it surfaces at the first write into it.
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// The arguments one run was started with.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// Accumulates one run's metrics, checks and counts.
pub struct Report {
    pub args: RunArgs,
    metrics: Vec<(&'static str, f64, usize)>,
    checks: Vec<(String, bool)>,
    phases: Vec<(String, f64, usize)>,
    notes: Vec<String>,
    /// Operations attempted in the timed phases.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
}

impl Report {
    pub fn new(args: RunArgs) -> Self {
        Self {
            args,
            metrics: Vec::new(),
            checks: Vec::new(),
            phases: Vec::new(),
            notes: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Records a metric of this run's mode from `n` samples.
    ///
    /// # Panics
    /// Panics on a name the schema does not list for this mode — a typo
    /// must not silently print an unlisted metric.
    pub fn set(&mut self, name: &'static str, value: f64, n: usize) {
        let listed = if self.args.trace {
            PER_LAYER.iter().any(|m| m.0 == name)
        } else {
            END_TO_END.iter().any(|m| m.name == name)
        };
        assert!(listed, "metric {name} is not in the schema for this mode");
        assert!(
            self.metrics.iter().all(|m| m.0 != name),
            "metric {name} set twice"
        );
        self.metrics.push((name, value, n));
    }

    /// Records one correctness check.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    /// Records how long a phase ran and how many samples it produced.
    pub fn phase(&mut self, name: &str, secs: f64, n: usize) {
        self.phases.push((name.to_string(), secs, n));
    }

    /// Records a fact about how the run was made.
    pub fn note(&mut self, what: impl Into<String>) {
        self.notes.push(what.into());
    }

    /// Prints everything, writes the result file, and returns the
    /// process exit code: 0 only if every check passed and every metric
    /// of the mode was reported finite (end-to-end ones also non-zero).
    pub fn finish(mut self, host: &Host) -> i32 {
        let names: Vec<&'static str> = if self.args.trace {
            PER_LAYER.iter().map(|m| m.0).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        for name in &names {
            let found = self.metrics.iter().find(|m| m.0 == *name).copied();
            match found {
                // A layer this workload does not exercise did no work.
                None if self.args.trace => self.metrics.push((name, 0.0, 0)),
                None => self.check(format!("metric {name} reported"), false),
                Some((_, v, _)) => {
                    let ok = v.is_finite() && (self.args.trace || v != 0.0);
                    if !ok {
                        self.check(format!("metric {name} finite and non-zero"), false);
                    }
                }
            }
        }
        self.check("at least one operation attempted", self.attempted >= 1);
        self.check("no operation failed or was refused", self.failed == 0);
        let correct = self.checks.iter().all(|c| c.1);

        let a = &self.args;
        println!(
            "# gbbench workload={} seed={} seconds={} trace={} smoke={} nproc={} rustc=\"{}\" target_cpu=\"{}\" commit={}",
            a.workload, a.seed, a.seconds, a.trace as u8, a.smoke as u8,
            host.nproc, host.rustc, host.target_cpu, host.commit
        );
        for note in &self.notes {
            println!("# note {note}");
        }
        for (name, secs, n) in &self.phases {
            println!("# phase {name} {secs:.3} s n={n}");
        }
        // Schema order, so two outputs line up.
        let mut metrics = Vec::new();
        for name in &names {
            if let Some(&(n, v, samples)) = self.metrics.iter().find(|m| m.0 == *name) {
                let unit = unit_of(n).expect("listed metric has a unit");
                println!("{} {} {} {} n={}", a.workload, n, v, unit, samples);
                metrics.push((n, v, unit, samples));
            }
        }
        for (what, ok) in &self.checks {
            println!("# check {}: {}", what, if *ok { "ok" } else { "FAILED" });
        }
        println!(
            "# ops attempted={} failed={} failed_ratio={}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );

        let finite = |v: f64| num(if v.is_finite() { v } else { 0.0 });
        let record = obj([
            ("workload", st(&a.workload)),
            ("seed", num(a.seed as f64)),
            ("seconds", num(a.seconds)),
            ("trace", boolean(a.trace)),
            ("smoke", boolean(a.smoke)),
            ("host", host.to_json()),
            ("notes", arr(self.notes.iter().map(|n| st(n)))),
            (
                "phases",
                arr(self.phases.iter().map(|(name, secs, n)| {
                    obj([
                        ("name", st(name)),
                        ("seconds", finite(*secs)),
                        ("n", num(*n as f64)),
                    ])
                })),
            ),
            (
                "metrics",
                arr(metrics.iter().map(|&(n, v, unit, samples)| {
                    obj([
                        ("name", st(n)),
                        ("value", finite(v)),
                        ("unit", st(unit)),
                        ("n", num(samples as f64)),
                    ])
                })),
            ),
            (
                "checks",
                arr(self
                    .checks
                    .iter()
                    .map(|(what, ok)| obj([("what", st(what)), ("ok", boolean(*ok))]))),
            ),
            ("attempted", num(self.attempted as f64)),
            ("failed", num(self.failed as f64)),
            ("correct", boolean(correct)),
        ]);
        let mode = if a.trace { "trace" } else { "e2e" };
        let path = out_dir().join(format!("result.{}.{mode}.json", a.workload));
        if let Err(e) = std::fs::write(&path, record.render()) {
            eprintln!("gbbench: cannot write {}: {e}", path.display());
        }

        let line = obj([
            ("correct", boolean(correct)),
            ("attempted", num(self.attempted.max(1) as f64)),
            ("failed", num(self.failed as f64)),
            (
                "metrics",
                obj(metrics
                    .iter()
                    .map(|&(n, v, unit, _)| (n, obj([("value", finite(v)), ("unit", st(unit))])))),
            ),
        ]);
        println!("{}", line.render());
        i32::from(!correct)
    }
}
