//! Fault-path tests: the typed-error surface, worker supervision, load
//! shedding, queue deadlines, degraded scatter-gather, and the atomic
//! cross-shard deal-filter install — all driven by the deterministic
//! [`FaultPlan`] harness, no timing-dependent flakiness in the
//! pass/fail conditions.
//!
//! The contracts pinned here:
//!
//! * A scoring panic is **caught**, surfaces as [`ServeError::Poisoned`]
//!   to exactly the affected caller, and leaves the engine, the worker
//!   pool, and every lock fully serviceable — the next query answers
//!   bitwise identically to an unfaulted engine.
//! * Shed and expired requests get their typed error immediately, are
//!   counted on their own counters, and **never** contaminate the
//!   served-latency percentiles ([`RecommendService::latency_stopwatch`]
//!   samples == requests served, always).
//! * A failed shard either heals in-query (retry), degrades the
//!   response with its id listed (policy on), or fails the query with
//!   [`ServeError::ShardFailed`] (policy off) — and a degraded merge is
//!   bitwise the reference ranking over the surviving shards' items.
//! * Concurrent deal-filter installs and scatters never produce a
//!   mixed-generation candidate mask: every response reflects exactly
//!   one installed filter, even with an injected delay widening the
//!   window before the install's slot swap.

use gb_eval::topk::reference_topk;
use gb_graph::BitMatrix;
use gb_models::EmbeddingSnapshot;
use gb_serve::{
    EngineConfig, FaultPlan, QueryEngine, RecommendService, ScoredItem, ServeError, ServiceConfig,
    ShardPlan, ShardedConfig, ShardedEngine,
};
use gb_tensor::Matrix;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// A deterministic synthetic snapshot; `tag` varies the tables.
fn snapshot(tag: u64, n_users: usize, n_items: usize, d: usize) -> EmbeddingSnapshot {
    let t = tag as f32;
    EmbeddingSnapshot::new(
        0.4,
        Matrix::from_fn(n_users, d, |r, c| ((r * 7 + c * 3) as f32 * 0.17 + t).sin()),
        Matrix::from_fn(n_items, d, |r, c| ((r * 5 + c) as f32 * 0.31 - t).cos()),
        Matrix::from_fn(n_users, d, |r, c| ((r + c * 11) as f32 * 0.13 + t).sin()),
        Matrix::from_fn(n_items, d, |r, c| ((r * 3 + c * 2) as f32 * 0.23 + t).cos()),
    )
}

fn pairs(items: &Arc<Vec<ScoredItem>>) -> Vec<(u32, u32)> {
    items.iter().map(|e| (e.item, e.score.to_bits())).collect()
}

/// Single-threaded deterministic service: one worker, no coalescing.
fn serial_service_cfg() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        coalesce_cap: 1,
        ..Default::default()
    }
}

fn serial_engine_cfg() -> EngineConfig {
    EngineConfig {
        user_block: 1,
        cache_capacity: 0,
        ..Default::default()
    }
}

// ---------------------------------------------------------------------
// Engine tier: typed validation + caught panics.
// ---------------------------------------------------------------------

#[test]
fn engine_rejects_out_of_range_user_with_typed_error() {
    let engine = QueryEngine::new(snapshot(0, 4, 30, 4));
    match engine.try_recommend(9, 5) {
        Err(ServeError::InvalidRequest { reason }) => {
            assert!(reason.contains("out of range"), "reason: {reason}");
        }
        other => panic!("expected InvalidRequest, got {other:?}"),
    }
    let errs = [
        engine.try_recommend_batch(&[0, 9], 5).unwrap_err(),
        engine.try_recommend_batch(&[9], 5).unwrap_err(),
    ];
    for e in errs {
        assert!(matches!(e, ServeError::InvalidRequest { .. }), "{e:?}");
    }
}

#[test]
fn engine_scripted_panic_is_caught_and_engine_survives() {
    let snap = snapshot(1, 6, 50, 4);
    let clean = QueryEngine::new(snap.clone());
    let faulted = QueryEngine::new(snap).with_faults(Arc::new(FaultPlan::new().panic_on_call(1)));
    match faulted.try_recommend(0, 8) {
        Err(ServeError::Poisoned { reason }) => {
            assert!(reason.contains("scripted panic"), "reason: {reason}");
        }
        other => panic!("expected Poisoned, got {other:?}"),
    }
    // The engine (locks included) stays serviceable, and the post-panic
    // answer is bitwise what an unfaulted engine serves.
    let healed = faulted.try_recommend(0, 8).expect("call 2 is unfaulted");
    assert_eq!(pairs(&healed), pairs(&clean.try_recommend(0, 8).unwrap()));
}

// ---------------------------------------------------------------------
// Service tier: supervision, shedding, deadlines.
// ---------------------------------------------------------------------

#[test]
fn service_worker_survives_scoring_panic() {
    let snap = snapshot(2, 6, 50, 4);
    let clean = QueryEngine::new(snap.clone());
    let engine = QueryEngine::with_config(snap.clone(), serial_engine_cfg())
        .with_faults(Arc::new(FaultPlan::new().panic_on_call(1)));
    let service = RecommendService::with_config(engine, serial_service_cfg());
    match service.try_recommend(0, 8) {
        Err(ServeError::Poisoned { reason }) => {
            assert!(reason.contains("scripted panic"), "reason: {reason}");
        }
        other => panic!("expected Poisoned, got {other:?}"),
    }
    assert_eq!(service.worker_panics(), 1);
    assert_eq!(service.requests_served(), 0);
    assert_eq!(
        service.latency_stopwatch().n_samples(),
        0,
        "a refused request must not enter the latency percentiles"
    );
    // Same worker thread, next request: served, bitwise clean.
    let healed = service.try_recommend(0, 8).expect("worker survived");
    assert_eq!(pairs(&healed), pairs(&clean.try_recommend(0, 8).unwrap()));
    assert_eq!(service.requests_served(), 1);
    assert_eq!(service.latency_stopwatch().n_samples(), 1);
}

#[test]
fn zero_watermark_sheds_every_request() {
    // A response cache so `warm()` has something to do (it no-ops on a
    // cacheless engine).
    let engine = QueryEngine::with_config(
        snapshot(3, 4, 30, 4),
        EngineConfig {
            cache_capacity: 16,
            ..Default::default()
        },
    );
    let service = RecommendService::with_config(
        engine,
        ServiceConfig {
            shed_watermark: 0,
            ..serial_service_cfg()
        },
    );
    for _ in 0..3 {
        match service.try_recommend(0, 5) {
            Err(ServeError::Overloaded { depth, watermark }) => {
                assert_eq!(watermark, 0);
                assert!(depth >= watermark);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
    }
    assert_eq!(service.requests_shed(), 3);
    assert_eq!(service.requests_served(), 0);
    assert_eq!(service.latency_stopwatch().n_samples(), 0);
    // Warm-ups are never shed.
    service.warm(&[0, 1]).unwrap();
    while service.warmups_served() < 2 {
        std::thread::yield_now();
    }
    assert_eq!(service.requests_shed(), 3, "warm() bypasses the watermark");
}

#[test]
fn warm_validates_the_whole_slice_before_enqueueing() {
    let service = RecommendService::with_config(
        QueryEngine::with_config(
            snapshot(5, 6, 40, 4),
            EngineConfig {
                cache_capacity: 8,
                ..serial_engine_cfg()
            },
        ),
        serial_service_cfg(),
    );
    match service.warm(&[0, 1, 6]) {
        Err(ServeError::InvalidRequest { reason }) => {
            assert!(reason.contains("out of range"), "reason: {reason}");
        }
        other => panic!("expected InvalidRequest, got {other:?}"),
    }
    // One worker drains the queue in order: once this reply is back,
    // every job enqueued before it has run.
    service.try_recommend(2, 5).expect("worker alive");
    assert_eq!(
        service.warmups_served(),
        0,
        "a rejected warm enqueues nothing"
    );
}

#[test]
fn queued_past_deadline_requests_expire_before_scoring() {
    let snap = snapshot(4, 6, 50, 4);
    // One worker whose every scoring pass stalls 300ms: the first job of
    // a batch is dequeued fresh, the second waits ≥300ms in queue and
    // must expire against a 50ms budget at dequeue, never scored.
    let engine = QueryEngine::with_config(snap.clone(), serial_engine_cfg()).with_faults(Arc::new(
        FaultPlan::new().delay_scoring(Duration::from_millis(300)),
    ));
    let service = RecommendService::with_config(
        engine,
        ServiceConfig {
            deadline: Some(Duration::from_millis(50)),
            ..serial_service_cfg()
        },
    );
    let results = service.try_recommend_batch(&[0, 1], 6);
    assert!(results[0].is_ok(), "fresh request served: {results:?}");
    assert!(
        matches!(
            results[1],
            Err(ServeError::DeadlineExceeded { budget }) if budget == Duration::from_millis(50)
        ),
        "stale request expired: {results:?}"
    );
    assert_eq!(service.requests_expired(), 1);
    assert_eq!(service.requests_served(), 1);
    assert_eq!(
        service.latency_stopwatch().n_samples(),
        1,
        "expired requests must not enter the latency percentiles"
    );
}

#[test]
fn watermark_sheds_only_past_depth_and_serves_the_rest() {
    let snap = snapshot(5, 6, 50, 4);
    let plan = Arc::new(FaultPlan::new().delay_scoring(Duration::from_millis(150)));
    let engine =
        QueryEngine::with_config(snap.clone(), serial_engine_cfg()).with_faults(Arc::clone(&plan));
    let service = RecommendService::with_config(
        engine,
        ServiceConfig {
            shed_watermark: 1,
            ..serial_service_cfg()
        },
    );
    std::thread::scope(|scope| {
        let t1 = scope.spawn(|| service.try_recommend(0, 6));
        // Once scoring call 1 is underway the queue is empty and the lone
        // worker is pinned for 150ms — admission decisions below are
        // deterministic: user 1 queues at depth 0, user 2 sees depth 1.
        while plan.scoring_calls() < 1 {
            std::thread::yield_now();
        }
        let results = service.try_recommend_batch(&[1, 2], 6);
        assert!(results[0].is_ok(), "below watermark: {results:?}");
        assert!(
            matches!(
                results[1],
                Err(ServeError::Overloaded {
                    depth: 1,
                    watermark: 1
                })
            ),
            "at watermark: {results:?}"
        );
        assert!(t1.join().expect("no panic").is_ok());
    });
    assert_eq!(service.requests_shed(), 1);
    assert_eq!(service.requests_served(), 2);
    assert_eq!(
        service.latency_stopwatch().n_samples(),
        2,
        "shed requests must not enter the latency percentiles"
    );
}

// ---------------------------------------------------------------------
// Router tier: degraded scatter-gather.
// ---------------------------------------------------------------------

fn sharded_with_faults(
    snap: EmbeddingSnapshot,
    n_shards: usize,
    retries: usize,
    allow_partial: bool,
    plan: FaultPlan,
) -> ShardedEngine {
    ShardedEngine::with_config(
        snap,
        ShardedConfig {
            n_shards,
            scatter_retries: retries,
            allow_partial,
            ..Default::default()
        },
    )
    .with_faults(Arc::new(plan))
}

#[test]
fn retry_heals_a_transient_shard_failure() {
    let snap = snapshot(6, 6, 120, 6);
    let single = QueryEngine::new(snap.clone());
    let sharded = sharded_with_faults(snap, 4, 1, false, FaultPlan::new().fail_shard(1, 1));
    let got = sharded.try_recommend(0, 10).expect("retry heals");
    assert!(got.missing_shards.is_empty());
    assert_eq!(
        pairs(&got.items),
        pairs(&single.try_recommend(0, 10).unwrap())
    );
    assert_eq!(sharded.shard_failures(), vec![0, 1, 0, 0]);
    assert_eq!(sharded.degraded_served(), 0);
}

#[test]
fn dead_shard_without_partial_policy_fails_the_query() {
    let snap = snapshot(6, 6, 120, 6);
    let sharded = sharded_with_faults(snap, 4, 1, false, FaultPlan::new().fail_shard(2, u64::MAX));
    match sharded.try_recommend(0, 10) {
        Err(ServeError::ShardFailed { shards }) => assert_eq!(shards, vec![2]),
        other => panic!("expected ShardFailed, got {other:?}"),
    }
    // Retried once, failed twice.
    assert_eq!(sharded.shard_failures()[2], 2);
}

#[test]
fn all_shards_failed_is_an_error_even_with_partial_policy() {
    let snap = snapshot(6, 6, 40, 6);
    let plan = FaultPlan::new()
        .fail_shard(0, u64::MAX)
        .fail_shard(1, u64::MAX);
    let sharded = sharded_with_faults(snap, 2, 0, true, plan);
    match sharded.try_recommend(0, 5) {
        Err(ServeError::ShardFailed { shards }) => assert_eq!(shards, vec![0, 1]),
        other => panic!("expected ShardFailed, got {other:?}"),
    }
    assert_eq!(sharded.degraded_served(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// With the partial policy on, a dead shard yields a flagged
    /// degraded response whose merge is exactly the reference ranking
    /// over the surviving shards' item ranges.
    #[test]
    fn degraded_merge_is_reference_over_surviving_shards(
        tag in 0u64..5,
        n_shards in 2usize..=6,
        dead in 0usize..6,
        k in 1usize..=25,
    ) {
        let dead = dead % n_shards;
        let n_items = 110;
        let snap = snapshot(tag, 6, n_items, 6);
        let sharded = sharded_with_faults(
            snap.clone(),
            n_shards,
            0,
            true,
            FaultPlan::new().fail_shard(dead, u64::MAX),
        );
        let (start, len) = ShardPlan::balanced(n_items, n_shards).ranges()[dead];
        let surviving: Vec<u32> = (0..n_items as u32)
            .filter(|&i| (i as usize) < start || (i as usize) >= start + len)
            .collect();
        for user in 0..6u32 {
            let got = sharded.try_recommend(user, k).expect("degraded, not failed");
            prop_assert_eq!(&got.missing_shards, &vec![dead], "user {}", user);
            let want = reference_topk(&snap, user, &surviving, k);
            let got_pairs: Vec<(u32, f32)> =
                got.items.iter().map(|e| (e.item, e.score)).collect();
            prop_assert_eq!(got_pairs, want, "user {} dead shard {}", user, dead);
        }
        prop_assert_eq!(sharded.degraded_served(), 6);
    }

    /// Concurrent deal-filter installs and scatters never serve a
    /// mixed-generation mask: with `k = n_items` the served set equals
    /// the allowed set exactly, so it must be {all}, {odds} (evens
    /// blocked), or {evens} (odds blocked) — any other set means one
    /// scatter served shards under two different filters. An injected
    /// install delay widens the window before the slot swap, which the
    /// atomic install must win.
    #[test]
    fn concurrent_filter_installs_never_blend_generations(
        tag in 0u64..4,
        n_shards in 1usize..=6,
        delay_pick in 0usize..3,
    ) {
        let delay_us = [0u64, 200, 800][delay_pick];
        let n_items = 48;
        let snap = snapshot(tag, 4, n_items, 5);
        let mut block_evens = BitMatrix::zeros(1, n_items);
        let mut block_odds = BitMatrix::zeros(1, n_items);
        for i in 0..n_items {
            if i % 2 == 0 {
                block_evens.set(0, i);
            } else {
                block_odds.set(0, i);
            }
        }
        let mut plan = FaultPlan::new();
        if delay_us > 0 {
            plan = plan.delay_filter_install(Duration::from_micros(delay_us));
        }
        let sharded = ShardedEngine::with_config(
            snap,
            ShardedConfig {
                n_shards,
                parallel_scatter: n_shards > 1,
                engine: EngineConfig { cache_capacity: 0, ..Default::default() },
                ..Default::default()
            },
        )
        .with_faults(Arc::new(plan));

        let all: Vec<u32> = (0..n_items as u32).collect();
        let odds: Vec<u32> = all.iter().copied().filter(|i| i % 2 == 1).collect();
        let evens: Vec<u32> = all.iter().copied().filter(|i| i % 2 == 0).collect();

        // `prop_assert!` can't early-return from inside the scope
        // closure, so collect the first violation and assert after.
        //
        // Read the baseline generation BEFORE spawning the installer: on
        // a loaded (or single-core) box the installer can finish all 13
        // installs before this thread runs again, and a baseline read
        // after the fact would then equal the final generation forever —
        // an infinite loop, not a failed assert.
        let gen_before = sharded.deal_generation();
        let violation = std::thread::scope(|scope| {
            let installer = scope.spawn(|| {
                for round in 0..12 {
                    if round % 2 == 0 {
                        sharded.set_deal_filter(block_evens.clone());
                    } else {
                        sharded.set_deal_filter(block_odds.clone());
                    }
                }
                sharded.clear_deal_filter();
            });
            let mut bad = None;
            while !installer.is_finished() || sharded.deal_generation() == gen_before {
                let got = sharded.try_recommend(0, n_items).unwrap().items;
                let mut served: Vec<u32> = got.iter().map(|e| e.item).collect();
                served.sort_unstable();
                if !(served == all || served == odds || served == evens) && bad.is_none() {
                    bad = Some(served);
                }
            }
            installer.join().expect("installer panicked");
            bad
        });
        prop_assert_eq!(
            violation,
            None,
            "mixed-generation mask at {} shards",
            n_shards
        );
        // 13 installs happened-before this load.
        prop_assert_eq!(sharded.deal_generation(), 13);
        let final_set: Vec<u32> = sharded
            .try_recommend(0, n_items)
            .unwrap()
            .items
            .iter()
            .map(|e| e.item)
            .collect();
        let mut final_sorted = final_set;
        final_sorted.sort_unstable();
        prop_assert_eq!(final_sorted, all, "cleared filter serves everything");
    }

    /// Periodic shard failures under the degraded policy: every query
    /// either matches the full reference or flags the failing shard —
    /// and the infallible wrapper never sees any of it as long as a
    /// retry budget covers the period.
    #[test]
    fn periodic_shard_faults_heal_under_retry(
        tag in 0u64..4,
        n_shards in 2usize..=5,
        every in 2u64..=5,
        k in 1usize..=15,
    ) {
        let snap = snapshot(tag, 5, 90, 5);
        let single = QueryEngine::new(snap.clone());
        // A shard failing every Nth attempt cannot fail twice in a row,
        // so one retry always heals it.
        let sharded = sharded_with_faults(
            snap,
            n_shards,
            1,
            false,
            FaultPlan::new().fail_shard_every(1, every),
        );
        for round in 0..10u32 {
            let user = round % 5;
            let got = sharded.try_recommend(user, k).expect("retry heals periodic faults");
            prop_assert!(got.missing_shards.is_empty());
            prop_assert_eq!(
                pairs(&got.items),
                pairs(&single.try_recommend(user, k).unwrap()),
                "round {} user {}",
                round,
                user
            );
        }
        prop_assert_eq!(sharded.degraded_served(), 0);
    }
}
