//! Integration: a trainer publishing mid-run snapshots into a live
//! service. The served top-K must follow the hot-swapped embeddings with
//! no restart and no stale-cache hits across the version boundary.

use gb_core::{GbgcnConfig, GbgcnModel, ParallelTrainConfig};
use gb_data::synth::{generate, SynthConfig};
use gb_data::Dataset;
use gb_eval::topk::reference_topk;
use gb_models::{SnapshotHandle, SnapshotSource};
use gb_serve::{EngineConfig, QueryEngine, RecommendService, ServiceConfig};

fn workload() -> Dataset {
    generate(&SynthConfig {
        n_users: 80,
        n_items: 60,
        ..SynthConfig::tiny()
    })
}

#[test]
fn mid_training_refresh_is_served_hot_with_cache_invalidation() {
    let data = workload();
    let users: Vec<u32> = (0..10).collect();
    let candidates: Vec<u32> = (0..data.n_items() as u32).collect();

    // A briefly-trained model seeds the handle (version 1)...
    let mut seed_model = GbgcnModel::new(
        GbgcnConfig {
            pretrain_epochs: 1,
            finetune_epochs: 1,
            ..GbgcnConfig::test_config()
        },
        &data,
    );
    seed_model.fit_parallel(&data, &ParallelTrainConfig::serial(), None);
    let v1_snapshot = seed_model.export_snapshot();
    let handle = SnapshotHandle::new(v1_snapshot.clone());

    // ...which a cached, threaded service starts serving immediately.
    let service = RecommendService::with_config(
        QueryEngine::with_handle(
            handle.clone(),
            EngineConfig {
                cache_capacity: 64,
                ..Default::default()
            },
        ),
        ServiceConfig {
            workers: 2,
            ..Default::default()
        },
    );
    for &u in &users {
        let (ver, got) = service.try_recommend_versioned(u, 10).unwrap();
        assert_eq!(ver, 1);
        let got: Vec<(u32, f32)> = got.iter().map(|e| (e.item, e.score)).collect();
        assert_eq!(got, reference_topk(&v1_snapshot, u, &candidates, 10));
    }
    // Second pass: all v1 answers now come from the cache.
    for &u in &users {
        service.try_recommend(u, 10).unwrap();
    }
    assert_eq!(
        service.engine().cache_stats(),
        (users.len() as u64, users.len() as u64)
    );

    // Mid-run refresh: a longer training run publishes every 2 fine-tune
    // epochs (and once at the end) into the live handle — no restart.
    let mut trainer = GbgcnModel::new(
        GbgcnConfig {
            pretrain_epochs: 2,
            finetune_epochs: 4,
            seed: 99,
            ..GbgcnConfig::test_config()
        },
        &data,
    );
    trainer.fit_parallel(
        &data,
        &ParallelTrainConfig::with_threads(2).refresh_every(2),
        Some(&handle),
    );
    // Publishes after epochs 2 and 4; the final export is skipped since
    // the epoch-4 cadence publish already froze the finished model: 1+2.
    let final_version = handle.version();
    assert_eq!(final_version, 3);

    // Served top-K now matches the offline reference on the *new*
    // embeddings, element for element.
    let refreshed = trainer.export_snapshot();
    for &u in &users {
        let (ver, got) = service.try_recommend_versioned(u, 10).unwrap();
        assert_eq!(ver, final_version, "must serve the latest publish");
        let got: Vec<(u32, f32)> = got.iter().map(|e| (e.item, e.score)).collect();
        assert_eq!(
            got,
            reference_topk(&refreshed, u, &candidates, 10),
            "user {u}: hot-swapped response must equal the offline top-K"
        );
    }
    // The version boundary invalidated every cached v1 response: the 10
    // post-swap queries were all misses, not stale hits.
    assert_eq!(
        service.engine().cache_stats(),
        (users.len() as u64, 2 * users.len() as u64)
    );
    // And repeat queries against the new version hit again.
    let (ver, _) = service.try_recommend_versioned(users[0], 10).unwrap();
    assert_eq!(ver, final_version);
    assert_eq!(
        service.engine().cache_stats(),
        (users.len() as u64 + 1, 2 * users.len() as u64)
    );
}

#[test]
fn every_published_cadence_version_is_observable_between_epochs() {
    // Drive the refresh cadence manually (publish per epoch via
    // refresh_every = 1) and check the handle's version and tables move
    // in lockstep with a service reading them.
    let data = workload();
    let mut warm = GbgcnModel::new(
        GbgcnConfig {
            pretrain_epochs: 1,
            finetune_epochs: 1,
            ..GbgcnConfig::test_config()
        },
        &data,
    );
    warm.fit_parallel(&data, &ParallelTrainConfig::serial(), None);
    let handle = SnapshotHandle::new(warm.export_snapshot());
    let service = RecommendService::start(QueryEngine::with_handle(
        handle.clone(),
        EngineConfig::default(),
    ));

    let mut trainer = GbgcnModel::new(
        GbgcnConfig {
            pretrain_epochs: 0,
            finetune_epochs: 3,
            seed: 7,
            ..GbgcnConfig::test_config()
        },
        &data,
    );
    trainer.fit_parallel(
        &data,
        &ParallelTrainConfig::with_threads(2).refresh_every(1),
        Some(&handle),
    );
    // 3 per-epoch publishes on top of version 1; no redundant final
    // (the epoch-3 publish is the finished model).
    assert_eq!(handle.version(), 4);
    let (ver, got) = service.try_recommend_versioned(3, 5).unwrap();
    assert_eq!(ver, 4);
    let candidates: Vec<u32> = (0..data.n_items() as u32).collect();
    let expect = reference_topk(&trainer.export_snapshot(), 3, &candidates, 5);
    let got: Vec<(u32, f32)> = got.iter().map(|e| (e.item, e.score)).collect();
    assert_eq!(got, expect);
}
