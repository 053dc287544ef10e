//! The repeatability check (`--sets N`): runs the workloads N times,
//! one child process per run, and holds every end-to-end metric to the
//! test the acceptance gate applies — the distance between the first
//! and third quartile of its values, as a share of their median, within
//! the metric's bound (`setup_s` excepted), and the second half's median
//! no worse than the first half's by more than the bound. With
//! `--same-seed`, exact metrics must also read identically.

use crate::cli::{child_args, run_child, Cli};
use crate::host::Host;
use crate::json::{arr, boolean, num, obj, st, Json};
use crate::report::out_dir;
use crate::schema::{END_TO_END, EXACT, PER_LAYER, WORKLOADS};
use crate::stats;

/// The metrics object of a run's last output line, if the run was
/// correct.
fn parse_result(stdout: &str) -> Option<Vec<(String, f64)>> {
    let line = stdout.lines().rev().find(|l| !l.trim().is_empty())?;
    let doc = Json::parse(line).ok()?;
    if doc.get("correct")?.as_bool() != Some(true) {
        return None;
    }
    Some(
        doc.get("metrics")?
            .fields()
            .into_iter()
            .filter_map(|(name, m)| Some((name, m.get("value")?.as_f64()?)))
            .collect(),
    )
}

/// How much worse `second` is than `first` as a share of `first`
/// (negative when it is better).
fn worsening(first: f64, second: f64, better: &str) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    let change = (second - first) / first.abs();
    if better == "lower" {
        change
    } else {
        -change
    }
}

pub fn run(cli: &Cli) -> i32 {
    let sets = cli.sets.expect("--sets was given");
    let trace = cli.trace.unwrap_or(false);
    let workloads: Vec<&str> = match &cli.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let metrics: Vec<(&str, &str, Option<f64>)> = if trace {
        PER_LAYER.iter().map(|m| (m.0, m.2, None)).collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.better, Some(m.bound)))
            .collect()
    };

    let mut values = vec![vec![Vec::<f64>::new(); metrics.len()]; workloads.len()];
    let mut all_ok = true;
    for set in 0..sets {
        let seed = if cli.same_seed {
            cli.seed
        } else {
            cli.seed + set as u64
        };
        for (w, workload) in workloads.iter().enumerate() {
            let (out, exited_ok) =
                run_child(&child_args(workload, seed, cli.seconds(), trace, cli.smoke));
            match parse_result(&out).filter(|_| exited_ok) {
                Some(result) => {
                    for (m, metric) in metrics.iter().enumerate() {
                        if let Some((_, v)) = result.iter().find(|(name, _)| name == metric.0) {
                            values[w][m].push(*v);
                        }
                    }
                    eprintln!("# set {} of {sets}: {workload} seed {seed} ok", set + 1);
                }
                None => {
                    all_ok = false;
                    print!("{out}");
                    println!("# set {} of {sets}: {workload} seed {seed} FAILED", set + 1);
                }
            }
        }
    }

    println!("# workload metric min median max spread drift bound verdict (n={sets})");
    let mut rows = Vec::new();
    for (w, workload) in workloads.iter().enumerate() {
        for (m, &(name, better, bound)) in metrics.iter().enumerate() {
            let v = &values[w][m];
            if v.len() < 2 {
                all_ok = false;
                println!("{workload} {name} missing");
                continue;
            }
            let spread = stats::quartile_spread(v);
            let (first, second) = v.split_at(v.len() / 2);
            let drift = worsening(stats::median(first), stats::median(second), better);
            let identical = v.iter().all(|x| x.to_bits() == v[0].to_bits());
            let mut verdict = "ok";
            if let Some(bound) = bound {
                // The gate exempts set-up time from the spread test, not
                // from the drift test.
                if (name != "setup_s" && spread > bound) || drift > bound {
                    verdict = "OUT OF BOUND";
                } else if name != "setup_s" && spread > bound / 3.0 {
                    verdict = "ok (spread above a third of the bound)";
                }
            }
            if cli.same_seed && EXACT.contains(&name) && !identical {
                verdict = "NOT IDENTICAL";
            }
            all_ok &= verdict.starts_with("ok");
            let mut sorted = v.clone();
            stats::sort(&mut sorted);
            let (min, max) = (sorted[0], sorted[sorted.len() - 1]);
            let median = stats::median(v);
            println!(
                "{workload} {name} {min} {median} {max} {spread:.4} {drift:+.4} {} {verdict}",
                bound.map_or("-".to_string(), |b| b.to_string())
            );
            rows.push(obj([
                ("workload", st(workload)),
                ("metric", st(name)),
                ("values", arr(v.iter().map(|&x| num(x)))),
                ("min", num(min)),
                ("median", num(median)),
                ("max", num(max)),
                ("spread", num(spread)),
                ("drift", num(drift)),
                ("bound", bound.map_or(Json::null(), num)),
                ("verdict", st(verdict)),
            ]));
        }
    }
    let doc = obj([
        ("sets", num(sets as f64)),
        ("seed", num(cli.seed as f64)),
        ("same_seed", boolean(cli.same_seed)),
        ("seconds", num(cli.seconds())),
        ("trace", boolean(trace)),
        ("smoke", boolean(cli.smoke)),
        ("host", Host::detect().to_json()),
        ("ok", boolean(all_ok)),
        ("rows", arr(rows)),
    ]);
    let path = out_dir().join("repeat.json");
    match std::fs::write(&path, doc.render()) {
        Ok(()) => println!("# wrote {}", path.display()),
        Err(e) => eprintln!("gbbench: cannot write {}: {e}", path.display()),
    }
    println!("# repeatability: {}", if all_ok { "ok" } else { "FAILED" });
    i32::from(!all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_last_line_of_a_correct_run() {
        let out = "# note\nw m 1 s n=1\n{\"correct\":true,\"attempted\":3,\"failed\":0,\
                   \"metrics\":{\"setup_s\":{\"value\":0.25,\"unit\":\"s\"}}}\n\n";
        assert_eq!(parse_result(out), Some(vec![("setup_s".to_string(), 0.25)]));
        assert_eq!(parse_result(&out.replace("true", "false")), None);
        assert_eq!(parse_result("no result here"), None);
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 110.0, "lower") - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, "higher") + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 80.0, "higher") - 0.20).abs() < 1e-12);
    }
}
