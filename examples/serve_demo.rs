//! End-to-end serving demo: train GBGCN on synthetic data, export and
//! persist an embedding snapshot, reload it, and serve top-K queries
//! through the concurrent service — printing latency statistics.
//!
//! Run with: `cargo run --release --example serve_demo`

use gbgcn_repro::data::synth::{generate, SynthConfig};
use gbgcn_repro::gbgcn::{GbgcnConfig, GbgcnModel};
use gbgcn_repro::models::Recommender;
use gbgcn_repro::prelude::*;
use gbgcn_repro::serve::{
    open_mmap_snapshot_heap, save_mmap_snapshot, EngineConfig, QueryEngine, ServiceConfig,
};

fn main() {
    // --- offline: train on a synthetic Beibei-like workload --------------
    let data = generate(&SynthConfig {
        n_users: 400,
        n_items: 150,
        ..SynthConfig::tiny()
    });
    println!(
        "workload: {} users, {} items, {} behaviors",
        data.n_users(),
        data.n_items(),
        data.behaviors().len()
    );
    let cfg = GbgcnConfig {
        pretrain_epochs: 5,
        finetune_epochs: 5,
        ..GbgcnConfig::test_config()
    };
    let mut model = GbgcnModel::new(cfg, &data);
    let report = model.fit(&data);
    println!(
        "trained GBGCN: {} epochs, final loss {:.4}",
        report.epochs, report.final_loss
    );

    // --- hand-off: snapshot to disk, reload for serving -------------------
    let snap = model.export_snapshot();
    let path = std::env::temp_dir().join("serve_demo.gbsn");
    save_mmap_snapshot(&snap, &path).expect("write snapshot");
    let loaded = open_mmap_snapshot_heap(&path).expect("read snapshot");
    assert_eq!(loaded, snap, "round-trip must be exact");
    println!(
        "snapshot: {} bytes on disk ({} user rows x d={} own / d={} social)",
        std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0),
        loaded.n_users(),
        loaded.own_dim(),
        loaded.social_dim(),
    );

    // --- online: filtered, cached, concurrent serving ---------------------
    let engine = QueryEngine::with_config(
        loaded,
        EngineConfig {
            cache_capacity: 128,
            ..Default::default()
        },
    )
    .with_seen_filter(gbgcn_repro::serve::seen_filter(&data.build_hetero()));
    let service = RecommendService::with_config(
        engine,
        ServiceConfig {
            workers: 4,
            queue_depth: 256,
            ..Default::default()
        },
    );

    // Warm a hot user set, then serve a skewed query stream.
    let hot: Vec<u32> = (0..32).collect();
    service.warm(&hot).expect("hot users are in range");
    let queries: Vec<u32> = (0..2000u32)
        .map(|i| {
            if i % 3 == 0 {
                i % 32
            } else {
                i % data.n_users() as u32
            }
        })
        .collect();
    let results = service.try_recommend_batch(&queries, 10);

    let user0 = results[0].as_ref().expect("user 0 is served");
    println!("\ntop-10 for user {}:", queries[0]);
    for (rank, e) in user0.iter().enumerate() {
        println!(
            "  #{:<2} item {:<4} score {:+.4}",
            rank + 1,
            e.item,
            e.score
        );
    }

    let served = service.requests_served();
    let sw = service.latency_stopwatch();
    let (hits, misses) = service.engine().cache_stats();
    println!("\nserved {served} requests");
    println!(
        "enqueue→reply latency: mean {:.1} us, p50 {:.1} us, p99 {:.1} us \
         (total {:.1} ms)",
        sw.mean_secs() * 1e6,
        sw.percentile_secs(50.0) * 1e6,
        sw.percentile_secs(99.0) * 1e6,
        sw.total_secs() * 1e3
    );
    println!(
        "cache: {hits} hits / {misses} misses ({:.0}% hit rate)",
        100.0 * hits as f64 / (hits + misses).max(1) as f64
    );
    std::fs::remove_file(&path).ok();
}
