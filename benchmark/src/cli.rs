//! Argument handling and dispatch.
//!
//! `gbbench --workload W --seed N --seconds S --trace 0|1` runs one
//! workload in this process (so `peak_rss_mb` is that workload's own)
//! and prints the result object last. Without `--workload` it runs the
//! whole set, one child process per workload and mode; with `--sets N`
//! it runs the repeatability check.

use crate::host::Host;
use crate::report::{out_dir, Report, RunArgs};
use crate::schema::WORKLOADS;
use crate::trace::Tracer;
use crate::workloads::{batch, exact, fresh, ivf, train};
use crate::{json, repeat};
use std::process::Command;

const USAGE: &str = "usage: gbbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
[--smoke] [--sets N [--same-seed]]
  --workload   train_gbgcn | serve_exact | batch_precompute | serve_sharded_ivf | freshness;
               without it every workload runs, each in its own process
  --seed       workload seed (default 1); the same seed gives the same inputs
  --seconds    length of each timed phase (default 12; 1 with --smoke)
  --trace      0: end-to-end metrics, no tracing; 1: per-layer metrics from spans
               (without --workload, both unless one is named)
  --smoke      small inputs and short phases; correctness checks stay on
  --sets       run N sets with seeds seed..seed+N-1, print per-metric min/median/max and
               quartile spread, write benchmark/out/repeat.json, fail outside the bounds
  --same-seed  with --sets: every set uses --seed, and exact metrics must be identical";

/// Parsed command line.
pub struct Cli {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: Option<bool>,
    pub smoke: bool,
    pub sets: Option<usize>,
    pub same_seed: bool,
}

impl Cli {
    /// Length of each timed phase.
    pub fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke { 1.0 } else { 12.0 })
    }
}

fn parse(args: &[String], forced_trace: Option<bool>) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: None,
        trace: forced_trace,
        smoke: false,
        sets: None,
        same_seed: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name}"));
                }
                cli.workload = Some(name.clone());
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--sets" => {
                let n: usize = value()?.parse().map_err(|e| format!("--sets: {e}"))?;
                if !(2..=100).contains(&n) {
                    return Err("--sets must be between 2 and 100".into());
                }
                cli.sets = Some(n);
            }
            "--smoke" => cli.smoke = true,
            "--same-seed" => cli.same_seed = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// Entry point of both binaries; returns the process exit code.
pub fn main(forced_trace: Option<bool>) -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args, forced_trace) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("gbbench: {e}\n{USAGE}");
            return 2;
        }
    };
    if cli.sets.is_some() {
        return repeat::run(&cli);
    }
    match &cli.workload {
        Some(workload) => run_one(RunArgs {
            workload: workload.clone(),
            seed: cli.seed,
            seconds: cli.seconds(),
            trace: cli.trace.unwrap_or(false),
            smoke: cli.smoke,
        }),
        None => run_set(&cli),
    }
}

/// One workload in one mode, in this process.
fn run_one(args: RunArgs) -> i32 {
    let host = Host::detect();
    let mut report = Report::new(args.clone());
    if args.trace {
        let mut tracer = Tracer::new();
        match args.workload.as_str() {
            "train_gbgcn" => train::trace(&mut report, &mut tracer),
            "serve_exact" => exact::trace(&mut report, &mut tracer),
            "batch_precompute" => batch::trace(&mut report, &mut tracer),
            "serve_sharded_ivf" => ivf::trace(&mut report, &mut tracer),
            _ => fresh::trace(&mut report, &mut tracer),
        }
        report.set("bench.spans", tracer.len() as f64, tracer.len());
        let doc = json::obj([
            ("workload", json::st(&args.workload)),
            ("seed", json::num(args.seed as f64)),
            ("host", host.to_json()),
            ("spans", tracer.to_json()),
        ]);
        let path = out_dir().join(format!("trace.{}.json", args.workload));
        if let Err(e) = std::fs::write(&path, doc.render()) {
            eprintln!("gbbench: cannot write {}: {e}", path.display());
        }
    } else {
        match args.workload.as_str() {
            "train_gbgcn" => train::run(&mut report),
            "serve_exact" => exact::run(&mut report),
            "batch_precompute" => batch::run(&mut report),
            "serve_sharded_ivf" => ivf::run(&mut report),
            _ => fresh::run(&mut report),
        }
    }
    report.finish(&host)
}

/// Runs this executable again with `args`, waits for it, and returns
/// its standard output and whether it exited with code 0.
pub fn run_child(args: &[String]) -> (String, bool) {
    let exe = std::env::current_exe().expect("path of this executable");
    match Command::new(exe).args(args).output() {
        Ok(out) => {
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            (
                String::from_utf8_lossy(&out.stdout).into_owned(),
                out.status.success(),
            )
        }
        Err(e) => (format!("# cannot start child: {e}\n"), false),
    }
}

/// The arguments of one child run.
pub fn child_args(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Vec<String> {
    let mut args: Vec<String> = [
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    if smoke {
        args.push("--smoke".into());
    }
    args
}

/// The whole set: every workload, end to end and then traced (or only
/// the mode `--trace` names), each in a process of its own.
fn run_set(cli: &Cli) -> i32 {
    let modes: Vec<bool> = match cli.trace {
        Some(mode) => vec![mode],
        None => vec![false, true],
    };
    let mut code = 0;
    for workload in WORKLOADS {
        for &trace in &modes {
            let (out, ok) = run_child(&child_args(
                workload,
                cli.seed,
                cli.seconds(),
                trace,
                cli.smoke,
            ));
            print!("{out}");
            if !ok {
                code = 1;
            }
        }
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let cli = parse(
            &args("--workload freshness --seed 7 --seconds 10 --trace 1"),
            None,
        )
        .unwrap();
        assert_eq!(cli.workload.as_deref(), Some("freshness"));
        assert_eq!((cli.seed, cli.seconds(), cli.trace), (7, 10.0, Some(true)));
        assert!(!cli.smoke);
    }

    #[test]
    fn rejects_what_it_does_not_know() {
        assert!(parse(&args("--workload nope"), None).is_err());
        assert!(parse(&args("--trace 2"), None).is_err());
        assert!(parse(&args("--seconds 0"), None).is_err());
        assert!(parse(&args("--seed"), None).is_err());
        assert!(parse(&args("--sets 1"), None).is_err());
    }

    #[test]
    fn smoke_shortens_the_default_phase() {
        assert_eq!(parse(&args("--smoke"), None).unwrap().seconds(), 1.0);
        assert_eq!(
            parse(&args("--smoke --seconds 2"), None).unwrap().seconds(),
            2.0
        );
        assert_eq!(parse(&[], Some(true)).unwrap().trace, Some(true));
    }
}
