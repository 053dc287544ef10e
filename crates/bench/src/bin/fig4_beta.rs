//! Regenerates **Fig. 4 (right pair)** — Recall@10 and NDCG@10 as a
//! function of the loss coefficient β ∈ {0, 0.01, 0.02, 0.05, 0.1, 0.2,
//! 0.5}.
//!
//! β controls how strongly failed group-buying behaviors are treated as
//! friends' negative feedback (Eq. 10). β = 0 degenerates the
//! double-pairwise loss to plain BPR. The paper's optimum on Beibei is
//! 0.05; on the synthetic workload the failure signal is cleaner, which
//! shifts the tolerable β range down.

use gb_bench::{train_gbgcn, tuned_gbgcn_config, write_csv, Workload};

fn main() {
    let scale = Workload::scale_from_args();
    let w = Workload::standard(&scale);
    println!("=== Fig. 4 (loss coefficient beta) (scale = {scale}) ===\n");
    println!("{:>6} {:>10} {:>10}", "beta", "Recall@10", "NDCG@10");

    let betas = [0.0f32, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5];
    let mut rows = Vec::new();
    for beta in betas {
        let cfg = tuned_gbgcn_config().with_beta(beta);
        let model = train_gbgcn(&w, cfg);
        let m = w.evaluate(&model);
        println!(
            "{beta:>6.2} {:>10.4} {:>10.4}",
            m.recall_at(10),
            m.ndcg_at(10)
        );
        rows.push(format!(
            "{beta:.2},{:.4},{:.4}",
            m.recall_at(10),
            m.ndcg_at(10)
        ));
    }

    println!(
        "\nshape check: large beta (0.2, 0.5) must clearly degrade performance (paper Fig. 4)."
    );
    let path = write_csv("fig4_beta.csv", "beta,recall@10,ndcg@10", &rows);
    println!("CSV written to {}", path.display());
}
