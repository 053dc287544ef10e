//! Regenerates **Table V** — impact of the multi-view design.
//!
//! Trains the full GBGCN and its three degenerate variants (views
//! averaged at the output of every propagation layer) and reports the
//! relative change, expecting every ablation to hurt and the double
//! ablation to hurt most. Pass `--separate-raw` as the second argument to
//! also run an extension ablation that is not in the paper (per-view raw
//! embedding tables instead of the paper's shared table).

use gb_bench::{train_gbgcn, tuned_gbgcn_config, write_csv, Workload};
use gb_core::AblationMode;

fn main() {
    let scale = Workload::scale_from_args();
    let separate_raw = std::env::args().any(|a| a == "--separate-raw");
    let w = Workload::standard(&scale);
    println!("=== Table V: impact of multi-view design (scale = {scale}) ===\n");
    println!(
        "{:<28} {:>8} {:>9} {:>8} {:>9} {:>8} {:>9} {:>8} {:>9}",
        "Method", "R@10", "Improve.", "R@20", "Improve.", "N@10", "Improve.", "N@20", "Improve."
    );

    let modes = [
        AblationMode::Full,
        AblationMode::NoItemRoles,
        AblationMode::NoUserRoles,
        AblationMode::NoRoles,
    ];
    let mut rows = Vec::new();
    let mut reference: Option<(f64, f64, f64, f64)> = None;
    for mode in modes {
        let cfg = tuned_gbgcn_config().with_ablation(mode);
        let model = train_gbgcn(&w, cfg);
        let m = w.evaluate(&model);
        let vals = (
            m.recall_at(10),
            m.recall_at(20),
            m.ndcg_at(10),
            m.ndcg_at(20),
        );
        let imp = |v: f64, r: f64| {
            if mode == AblationMode::Full {
                "-".to_string()
            } else {
                format!("{:+.2}%", 100.0 * (v / r - 1.0))
            }
        };
        let r = reference.unwrap_or(vals);
        println!(
            "{:<28} {:>8.4} {:>9} {:>8.4} {:>9} {:>8.4} {:>9} {:>8.4} {:>9}",
            mode.label(),
            vals.0,
            imp(vals.0, r.0),
            vals.1,
            imp(vals.1, r.1),
            vals.2,
            imp(vals.2, r.2),
            vals.3,
            imp(vals.3, r.3)
        );
        rows.push(format!(
            "{},{:.4},{:.4},{:.4},{:.4}",
            mode.label().replace(',', ";"),
            vals.0,
            vals.1,
            vals.2,
            vals.3
        ));
        if reference.is_none() {
            reference = Some(vals);
        }
    }

    if separate_raw {
        println!("\n--- extension ablation (not in the paper): separate raw embeddings ---");
        let cfg = gb_core::GbgcnConfig {
            separate_raw: true,
            ..tuned_gbgcn_config()
        };
        let model = train_gbgcn(&w, cfg);
        let m = w.evaluate(&model);
        let r = reference.unwrap();
        println!(
            "{:<28} {:>8.4} {:>+8.2}% {:>8.4} {:>+8.2}% (vs shared raw)",
            "Separate Raw Embeddings",
            m.recall_at(10),
            100.0 * (m.recall_at(10) / r.0 - 1.0),
            m.ndcg_at(10),
            100.0 * (m.ndcg_at(10) / r.2 - 1.0),
        );
        rows.push(format!(
            "Separate Raw Embeddings,{:.4},{:.4},{:.4},{:.4}",
            m.recall_at(10),
            m.recall_at(20),
            m.ndcg_at(10),
            m.ndcg_at(20)
        ));
    }

    let path = write_csv(
        "table5_ablation.csv",
        "variant,recall@10,recall@20,ndcg@10,ndcg@20",
        &rows,
    );
    println!("\nCSV written to {}", path.display());
}
