//! End-to-end serving guarantees, exercised with genuinely trained
//! models: snapshot round-trips, offline/online ranking consistency,
//! seen-item filtering, and concurrent-vs-sequential equivalence.

use gb_core::{GbgcnConfig, GbgcnModel};
use gb_data::synth::{generate, SynthConfig};
use gb_data::{Dataset, NegativeSampler};
use gb_eval::topk::reference_topk;
use gb_eval::{EvalProtocol, Scorer};
use gb_models::{Gbmf, GbmfConfig, Recommender, SnapshotSource, TrainConfig};
use gb_serve::{
    open_mmap_snapshot_heap, save_mmap_snapshot, seen_filter, EngineConfig, QueryEngine,
    RecommendService, ServeError, ServiceConfig,
};

fn workload() -> Dataset {
    generate(&SynthConfig {
        n_users: 120,
        n_items: 80,
        ..SynthConfig::tiny()
    })
}

fn trained_gbgcn(data: &Dataset) -> GbgcnModel {
    let cfg = GbgcnConfig {
        pretrain_epochs: 3,
        finetune_epochs: 3,
        ..GbgcnConfig::test_config()
    };
    let mut m = GbgcnModel::new(cfg, data);
    m.fit(data);
    m
}

fn trained_gbmf(data: &Dataset) -> Gbmf {
    let cfg = GbmfConfig {
        base: TrainConfig {
            dim: 8,
            epochs: 5,
            batch_size: 128,
            ..Default::default()
        },
        alpha: 0.4,
    };
    let mut m = Gbmf::new(cfg);
    m.fit(data);
    m
}

#[test]
fn trained_snapshot_roundtrips_bit_identically() {
    let data = workload();
    let path = std::env::temp_dir().join(format!("gb_serving_{}.gbsn", std::process::id()));
    for snap in [
        trained_gbgcn(&data).export_snapshot(),
        trained_gbmf(&data).export_snapshot(),
    ] {
        save_mmap_snapshot(&snap, &path).unwrap();
        let back = open_mmap_snapshot_heap(&path).unwrap();
        assert_eq!(back, snap, "round-trip must be exact");
        // And the reloaded snapshot scores identically.
        let items: Vec<u32> = (0..data.n_items() as u32).collect();
        for user in [0u32, 7, 119] {
            assert_eq!(
                snap.score_items(user, &items),
                back.score_items(user, &items)
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn served_topk_matches_offline_scorer_ranking() {
    let data = workload();
    let model = trained_gbgcn(&data);
    let snap = model.export_snapshot();
    // One 80-item block, shorter than a full one: the tail path.
    let engine = QueryEngine::new(snap);
    let candidates: Vec<u32> = (0..data.n_items() as u32).collect();
    for user in 0..data.n_users() as u32 {
        let served: Vec<(u32, f32)> = engine
            .try_recommend(user, 10)
            .unwrap()
            .iter()
            .map(|e| (e.item, e.score))
            .collect();
        // The reference ranking is computed with the *model's own* Scorer
        // impl — this is the offline/online consistency guarantee.
        let offline = reference_topk(&model, user, &candidates, 10);
        assert_eq!(served, offline, "user {user}");
    }
}

#[test]
fn snapshot_scorer_reproduces_eval_protocol_metrics() {
    let data = workload();
    let split = gb_data::split::leave_one_out(&data, 11);
    let mut model = GbgcnModel::new(
        GbgcnConfig {
            pretrain_epochs: 3,
            finetune_epochs: 3,
            ..GbgcnConfig::test_config()
        },
        &split.train,
    );
    model.fit(&split.train);
    let snap = model.export_snapshot();

    let sampler = NegativeSampler::from_dataset(&split.train);
    let protocol = EvalProtocol::exhaustive();
    let from_model = protocol.evaluate(&model, &split.test, &sampler, data.n_items());
    let from_snapshot = protocol.evaluate(&snap, &split.test, &sampler, data.n_items());
    assert_eq!(from_model.per_user_recall, from_snapshot.per_user_recall);
    assert_eq!(from_model.per_user_ndcg, from_snapshot.per_user_ndcg);
}

#[test]
fn seen_items_never_served() {
    let data = workload();
    let model = trained_gbmf(&data);
    let engine = QueryEngine::new(model.export_snapshot())
        .with_seen_filter(seen_filter(&data.build_hetero()));
    let interacted = data.interacted_items();
    for user in 0..data.n_users() as u32 {
        let served = engine.try_recommend(user, data.n_items()).unwrap();
        for e in served.iter() {
            assert!(
                interacted[user as usize].binary_search(&e.item).is_err(),
                "user {user} was served seen item {}",
                e.item
            );
        }
        assert_eq!(
            served.len(),
            data.n_items() - interacted[user as usize].len(),
            "user {user} should be offered exactly the unseen catalogue"
        );
    }
}

#[test]
fn filtered_serving_matches_reference_over_unseen_candidates() {
    let data = workload();
    let model = trained_gbgcn(&data);
    let engine = QueryEngine::new(model.export_snapshot())
        .with_seen_filter(seen_filter(&data.build_hetero()));
    let interacted = data.interacted_items();
    for user in [0u32, 13, 60, 119] {
        let unseen: Vec<u32> = (0..data.n_items() as u32)
            .filter(|i| interacted[user as usize].binary_search(i).is_err())
            .collect();
        let served: Vec<(u32, f32)> = engine
            .try_recommend(user, 5)
            .unwrap()
            .iter()
            .map(|e| (e.item, e.score))
            .collect();
        assert_eq!(
            served,
            reference_topk(&model, user, &unseen, 5),
            "user {user}"
        );
    }
}

#[test]
fn concurrent_batches_equal_sequential_answers() {
    let data = workload();
    let model = trained_gbgcn(&data);
    let snap = model.export_snapshot();

    // Sequential ground truth from a private engine.
    let solo = QueryEngine::new(snap.clone());
    let users: Vec<u32> = (0..data.n_users() as u32).cycle().take(300).collect();
    let expected: Vec<Vec<(u32, f32)>> = users
        .iter()
        .map(|&u| {
            solo.try_recommend(u, 10)
                .unwrap()
                .iter()
                .map(|e| (e.item, e.score))
                .collect()
        })
        .collect();

    // Concurrent service with a shared cache: same answers, in order.
    let service = RecommendService::with_config(
        QueryEngine::with_config(
            snap,
            EngineConfig {
                cache_capacity: 32,
                ..Default::default()
            },
        ),
        ServiceConfig {
            workers: 4,
            queue_depth: 8,
            warm_k: 10,
            ..Default::default()
        },
    );
    service.warm(&users[..20]).unwrap();
    let got = service.try_recommend_batch(&users, 10);
    for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
        let g: Vec<(u32, f32)> = g
            .as_ref()
            .unwrap()
            .iter()
            .map(|x| (x.item, x.score))
            .collect();
        assert_eq!(&g, e, "request {i} (user {})", users[i]);
    }
    // Warm-ups must never leak into the serving metrics: only the 300
    // caller-facing batch requests count, and only they carry latency
    // samples (regression for the warm-job metric pollution bug).
    let served = service.requests_served();
    assert_eq!(served, 300, "exactly the batch requests are served");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while service.warmups_served() < 20 && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(service.warmups_served(), 20, "warm-ups tracked separately");
    let sw = service.latency_stopwatch(); // drains the samples
    assert_eq!(sw.n_samples(), served);
    assert!(sw.mean_secs() >= 0.0);
    assert_eq!(
        service.requests_served(),
        served,
        "requests_served is monotone: draining latency samples must not reset it"
    );
    let sw2 = service.latency_stopwatch();
    assert_eq!(sw2.n_samples(), 0, "samples were drained exactly once");

    let (hits, misses) = service.engine().cache_stats();
    assert!(hits > 0, "cycled users must hit the cache");
    assert!(misses >= data.n_users() as u64 / 2);
}

#[test]
fn single_recommend_through_service_matches_engine() {
    let data = workload();
    let snap = trained_gbmf(&data).export_snapshot();
    let solo = QueryEngine::new(snap.clone());
    let service = RecommendService::start(QueryEngine::new(snap));
    for user in [0u32, 5, 42] {
        assert_eq!(
            *service.try_recommend(user, 7).unwrap(),
            *solo.try_recommend(user, 7).unwrap()
        );
    }
}

#[test]
fn warm_is_a_noop_without_a_response_cache() {
    let data = workload();
    let snap = trained_gbmf(&data).export_snapshot();
    // Default EngineConfig has no cache: warming would be discarded work.
    let service = RecommendService::start(QueryEngine::new(snap));
    service.warm(&[0, 1, 2, 3]).unwrap();
    let answer = service.try_recommend(0, 5).unwrap(); // forces the queue to drain past warm
    assert_eq!(answer.len(), 5);
    assert_eq!(
        service.requests_served(),
        1,
        "only the real query should have hit the workers"
    );
}

#[test]
fn out_of_range_user_rejected_without_killing_workers() {
    let data = workload();
    let snap = trained_gbmf(&data).export_snapshot();
    let service = RecommendService::with_config(
        QueryEngine::new(snap),
        ServiceConfig {
            workers: 1,
            ..Default::default()
        },
    );
    let bad = data.n_users() as u32 + 3;
    assert!(
        matches!(
            service.try_recommend(bad, 5),
            Err(ServeError::InvalidRequest { .. })
        ),
        "out-of-range user must be rejected"
    );
    // The rejection happened on the caller's thread: the single worker
    // is still alive and serving.
    assert_eq!(service.try_recommend(0, 5).unwrap().len(), 5);
    let batch = service.try_recommend_batch(&[0, bad], 5);
    assert_eq!(batch[0].as_ref().unwrap().len(), 5);
    assert!(
        matches!(batch[1], Err(ServeError::InvalidRequest { .. })),
        "batch must validate every user before enqueueing it"
    );
    assert_eq!(
        service.requests_served(),
        2,
        "the bad slot never reached a worker"
    );
    assert_eq!(service.try_recommend(1, 5).unwrap().len(), 5);
}
