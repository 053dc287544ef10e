//! # gb-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (Sec. IV). Each `src/bin/*.rs` binary reproduces one
//! artifact; this library holds the shared plumbing: the standard
//! workload, the tuned model zoo, and table/CSV output helpers.
//!
//! | Binary | Artifact |
//! |---|---|
//! | `table2_stats` | Table II (dataset statistics) |
//! | `table3_overall` | Table III (overall performance, 10 methods) |
//! | `table4_time` | Table IV (training/testing time) |
//! | `table5_ablation` | Table V (multi-view ablation) |
//! | `fig4_alpha` | Fig. 4 left (role coefficient sweep) |
//! | `fig4_beta` | Fig. 4 right (loss coefficient sweep) |
//! | `fig5_cosine_pdf` | Fig. 5 (cosine-similarity PDFs) |
//! | `fig6_tsne` | Fig. 6 (t-SNE embedding visualization) |
//! | `run_all` | everything above, in sequence |
//!
//! Figure data series are written as CSV under `target/experiments/`.

use gb_core::{GbgcnConfig, GbgcnModel};
use gb_data::split::{leave_one_out, Split};
use gb_data::synth::{generate, SynthConfig};
use gb_data::{Dataset, NegativeSampler};
use gb_eval::{EvalProtocol, RankingMetrics, Scorer};
use gb_models::{Recommender, TrainConfig};
use std::io::Write;
use std::path::PathBuf;

/// The standard experiment workload: a scaled Beibei-like dataset with the
/// leave-one-out split and the training-side negative sampler.
pub struct Workload {
    /// The full generated dataset.
    pub data: Dataset,
    /// Leave-one-out split of `data`.
    pub split: Split,
    /// Negative/candidate sampler built from the training split.
    pub sampler: NegativeSampler,
    /// The ranking protocol (exhaustive candidates on the scaled
    /// catalogue; see `gb_eval::protocol`).
    pub protocol: EvalProtocol,
}

impl Workload {
    /// Builds the standard Table III workload.
    ///
    /// `scale` ∈ {"small", "paper", "large"} controls dataset size:
    /// `small` = 600 users (fast smoke runs), `paper` = 1200 users (the
    /// default for all reported numbers), `large` = 8000 users (Table IV
    /// timing).
    pub fn standard(scale: &str) -> Self {
        let cfg = match scale {
            "small" => SynthConfig {
                n_users: 600,
                n_items: 150,
                ..SynthConfig::beibei_like()
            },
            "paper" => SynthConfig {
                n_users: 1200,
                n_items: 300,
                ..SynthConfig::beibei_like()
            },
            "large" => SynthConfig::beibei_large(),
            other => panic!("unknown scale `{other}` (use small|paper|large)"),
        };
        Self::from_synth(cfg)
    }

    /// Builds a workload from an explicit generator config.
    pub(crate) fn from_synth(cfg: SynthConfig) -> Self {
        let data = generate(&cfg);
        let split = leave_one_out(&data, 1);
        let sampler = NegativeSampler::from_dataset(&split.train);
        Self {
            data,
            split,
            sampler,
            protocol: EvalProtocol::exhaustive(),
        }
    }

    /// Reads the experiment scale from argv (default "paper").
    pub fn scale_from_args() -> String {
        std::env::args()
            .nth(1)
            .unwrap_or_else(|| "paper".to_string())
    }

    /// Evaluates a trained scorer on the held-out test instances.
    pub fn evaluate(&self, scorer: &dyn Scorer) -> RankingMetrics {
        self.protocol
            .evaluate(scorer, &self.split.test, &self.sampler, self.data.n_items())
    }
}

/// The shared baseline hyper-parameters, tuned once on the validation
/// split of the standard workload (the paper tunes each baseline the same
/// way on its validation set).
pub(crate) fn tuned_train_config() -> TrainConfig {
    TrainConfig {
        dim: 32,
        epochs: 40,
        batch_size: 512,
        lr: 5e-3,
        l2: 1e-5,
        ..Default::default()
    }
}

/// The tuned GBGCN configuration for the standard workload.
///
/// α = 0.6 matches the paper's best; β is tuned on validation like every
/// other hyper-parameter (the synthetic dataset's failed-group signal is
/// cleaner than production Beibei, shifting the β optimum down).
pub fn tuned_gbgcn_config() -> GbgcnConfig {
    GbgcnConfig {
        dim: 32,
        n_layers: 2,
        alpha: 0.6,
        beta: 0.02,
        batch_size: 256,
        pretrain_epochs: 40,
        finetune_epochs: 60,
        pretrain_lr: 0.01,
        finetune_lr: 1.0,
        ..GbgcnConfig::default()
    }
}

/// Builds the full baseline zoo of Table III (everything except GBGCN).
pub fn baseline_zoo() -> Vec<(&'static str, Box<dyn Recommender>)> {
    use gb_data::convert::InteractionKind;
    use gb_models::{Agree, DiffNet, Gbmf, GbmfConfig, Mf, Ncf, Ngcf, Sigr, SocialMf};
    let tc = tuned_train_config;
    vec![
        (
            "MF(oi)",
            Box::new(Mf::new(tc(), InteractionKind::InitiatorOnly)) as Box<dyn Recommender>,
        ),
        ("MF", Box::new(Mf::new(tc(), InteractionKind::BothRoles))),
        ("NCF", Box::new(Ncf::new(tc()))),
        ("NGCF", Box::new(Ngcf::new(tc()))),
        ("SocialMF", Box::new(SocialMf::new(tc(), 0.05))),
        ("DiffNet", Box::new(DiffNet::new(tc()))),
        ("AGREE", Box::new(Agree::new(tc()))),
        ("SIGR", Box::new(Sigr::new(tc()))),
        (
            "GBMF",
            Box::new(Gbmf::new(GbmfConfig {
                base: tc(),
                alpha: 0.5,
            })),
        ),
    ]
}

/// Trains GBGCN on the workload with the tuned config.
pub fn train_gbgcn(w: &Workload, cfg: GbgcnConfig) -> GbgcnModel {
    let mut m = GbgcnModel::new(cfg, &w.split.train);
    m.fit(&w.split.train);
    m
}

/// Formats one Table III-style metric row.
pub fn metric_row(name: &str, m: &RankingMetrics) -> String {
    format!(
        "{name:<10} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>8.4}",
        m.recall_at(3),
        m.recall_at(5),
        m.recall_at(10),
        m.recall_at(20),
        m.ndcg_at(3),
        m.ndcg_at(5),
        m.ndcg_at(10),
        m.ndcg_at(20),
    )
}

/// The Table III header line.
pub fn metric_header() -> String {
    format!(
        "{:<10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "Method", "R@3", "R@5", "R@10", "R@20", "N@3", "N@5", "N@10", "N@20"
    )
}

/// Directory for figure CSVs (`target/experiments/`), created on demand.
pub(crate) fn experiments_dir() -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    std::fs::create_dir_all(&dir).expect("create experiments dir");
    dir
}

/// Writes CSV rows (with header) into `target/experiments/<name>`.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> PathBuf {
    let path = experiments_dir().join(name);
    let mut f = std::fs::File::create(&path).expect("create csv");
    writeln!(f, "{header}").unwrap();
    for r in rows {
        writeln!(f, "{r}").unwrap();
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_workload_builds_and_evaluates() {
        let w = Workload::standard("small");
        assert!(w.split.test.len() == w.data.n_users());
        struct Zero;
        impl Scorer for Zero {
            fn score_items(&self, _u: u32, items: &[u32]) -> Vec<f32> {
                vec![0.0; items.len()]
            }
        }
        let m = w.evaluate(&Zero);
        // All-ties scorer: mid-rank convention puts the test item around
        // the middle, so Recall@20 on a ~150-item catalogue is tiny.
        assert!(m.recall_at(20) < 0.2);
    }

    #[test]
    #[should_panic(expected = "unknown scale")]
    fn unknown_scale_rejected() {
        Workload::standard("huge");
    }

    #[test]
    fn zoo_has_nine_baselines_in_table_order() {
        let zoo = baseline_zoo();
        let names: Vec<&str> = zoo.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            vec!["MF(oi)", "MF", "NCF", "NGCF", "SocialMF", "DiffNet", "AGREE", "SIGR", "GBMF"]
        );
    }
}
