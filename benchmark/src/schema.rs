//! The names this benchmark prints — workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics — in one place. A unit
//! test holds `BENCHMARK.json` to exactly these.

/// Workload names, in the order a full set runs them.
pub const WORKLOADS: [&str; 5] = [
    "train_gbgcn",
    "serve_exact",
    "batch_precompute",
    "serve_sharded_ivf",
    "freshness",
];

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// Every workload reports every one of these. What the workload's
/// "operation" is — an epoch, a reply, an 8-user chunk, a tick — is in
/// the README's workload table.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p10_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "quality_at_10",
        unit: "ratio",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.1,
    },
];

/// Per-layer metrics `(name, unit, better)`, taken by the traced run
/// from outside each layer. A workload reports 0 for a layer it does
/// not exercise.
pub const PER_LAYER: [(&str, &str, &str); 68] = [
    ("tensor.blend_dot_block_us", "us", "lower"),
    ("tensor.blend_dot_block_multi_us_per_user", "us", "lower"),
    ("tensor.flops_per_query", "count", "lower"),
    ("tensor.bytes_per_query", "B", "lower"),
    ("tensor.matmul_us", "us", "lower"),
    ("tensor.segment_mean_us", "us", "lower"),
    ("tensor.kmeans_s", "s", "lower"),
    ("core.propagate_forward_ms", "ms", "lower"),
    ("core.pretrain_epoch_s", "s", "lower"),
    ("core.finetune_epoch_p50_s", "s", "lower"),
    ("core.finalize_ms", "ms", "lower"),
    ("core.propagations_per_batch", "count", "lower"),
    ("core.final_loss", "loss", "lower"),
    ("autograd.propagate_backward_ms", "ms", "lower"),
    ("autograd.sgd_step_us", "us", "lower"),
    ("autograd.adam_step_us", "us", "lower"),
    ("autograd.dispatch_us_per_batch", "us", "lower"),
    ("data.generate_s", "s", "lower"),
    ("data.batch_build_us", "us", "lower"),
    ("data.blocked_items_at_us", "us", "lower"),
    ("graph.build_hetero_ms", "ms", "lower"),
    ("graph.seen_filter_build_ms", "ms", "lower"),
    ("graph.seen_filter_bytes", "B", "lower"),
    ("eval.evaluate_users_per_s", "1/s", "higher"),
    ("models.export_snapshot_ms", "ms", "lower"),
    ("models.publish_delta_us", "us", "lower"),
    ("models.publish_full_us", "us", "lower"),
    ("models.delta_rows", "count", "lower"),
    ("models.snapshot_bytes", "B", "lower"),
    ("serve.engine.query_us", "us", "lower"),
    ("serve.engine.batch8_us_per_user", "us", "lower"),
    ("serve.engine.self_us", "us", "lower"),
    ("serve.engine.set_deal_filter_us", "us", "lower"),
    ("serve.service.reply_us", "us", "lower"),
    ("serve.service.self_us", "us", "lower"),
    ("serve.service.largest_group", "count", "lower"),
    ("serve.service.batches_served", "count", "higher"),
    ("serve.service.shed", "count", "lower"),
    ("serve.service.expired", "count", "lower"),
    ("serve.service.worker_panics", "count", "lower"),
    ("serve.ivf.build_s", "s", "lower"),
    ("serve.ivf.update_us", "us", "lower"),
    ("serve.ivf.candidates_per_query", "count", "lower"),
    ("serve.ivf.size_bytes", "B", "lower"),
    ("serve.router.query_us", "us", "lower"),
    ("serve.router.shard_mean_us", "us", "lower"),
    ("serve.router.merge_mean_us", "us", "lower"),
    ("serve.router.self_us", "us", "lower"),
    ("serve.cache.hit_ratio", "ratio", "higher"),
    ("serve.cache.hit_us", "us", "lower"),
    ("serve.mmap.save_ms", "ms", "lower"),
    ("serve.mmap.open_us", "us", "lower"),
    ("fresh.lag_ms", "ms", "lower"),
    ("fresh.stage.filter_ms", "ms", "lower"),
    ("fresh.stage.finetune_ms", "ms", "lower"),
    ("fresh.stage.export_ms", "ms", "lower"),
    ("fresh.stage.publish_ms", "ms", "lower"),
    ("fresh.stage.first_reply_ms", "ms", "lower"),
    ("fresh.stage_sum_ratio", "ratio", "higher"),
    ("bench.selftime_sum_ratio", "ratio", "higher"),
    ("bench.ops_per_s", "1/s", "higher"),
    ("bench.op_p50_us", "us", "lower"),
    ("bench.op_tail_us", "us", "lower"),
    ("bench.reader_p50_us", "us", "lower"),
    ("bench.reader_p99_us", "us", "lower"),
    ("bench.loadgen_late_p99_us", "us", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.spans", "count", "higher"),
];

/// Metrics that are counts or deterministic arithmetic: two runs with
/// one seed must print them identically.
pub const EXACT: [&str; 10] = [
    "quality_at_10",
    "core.propagations_per_batch",
    "core.final_loss",
    "models.delta_rows",
    "models.snapshot_bytes",
    "serve.ivf.candidates_per_query",
    "serve.ivf.size_bytes",
    "tensor.flops_per_query",
    "tensor.bytes_per_query",
    "graph.seen_filter_bytes",
];

/// Unit of a metric of either kind.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn is_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
    }

    fn is_unit(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut names: Vec<&str> = WORKLOADS.to_vec();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        for n in &names {
            assert!(is_name(n), "bad name {n:?}");
        }
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "a name is used twice");
        for m in &END_TO_END {
            assert!(
                is_unit(m.unit) && m.bound > 0.0 && m.bound <= 0.25,
                "{}",
                m.name
            );
            assert!(["lower", "higher"].contains(&m.better));
        }
        for m in &PER_LAYER {
            assert!(is_unit(m.1), "{}", m.0);
            assert!(["lower", "higher"].contains(&m.2));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    /// `BENCHMARK.json` lists exactly what the binaries print.
    #[test]
    fn benchmark_json_matches_the_schema() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("valid JSON");
        let keys: Vec<String> = doc.fields().into_iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let field = |j: &Json, k: &str| j.get(k).unwrap_or_else(|| panic!("missing {k}"));
        let text_of = |j: &Json, k: &str| field(j, k).as_str().expect("string").to_string();

        let workloads: Vec<String> = field(&doc, "workloads")
            .items()
            .iter()
            .map(|w| {
                assert!(text_of(w, "why").len() <= 200);
                text_of(w, "name")
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);

        let e2e = field(&doc, "end_to_end").items();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text_of(got, "name"), want.name);
            assert_eq!(text_of(got, "unit"), want.unit);
            assert_eq!(text_of(got, "better"), want.better);
            assert_eq!(
                field(got, "bound").as_f64(),
                Some(want.bound),
                "{}",
                want.name
            );
        }

        let layers = field(&doc, "per_layer").items();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(text_of(got, "name"), want.0);
            assert_eq!(text_of(got, "unit"), want.1);
            assert_eq!(text_of(got, "better"), want.2);
        }
        let paths = field(&doc, "paths").items();
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].as_str(), Some("benchmark"));
    }
}
