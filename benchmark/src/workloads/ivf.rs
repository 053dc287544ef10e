//! `serve_sharded_ivf` — the scale-out tier: a clustered 262 144-item
//! catalogue written as a mappable snapshot, opened with `mmap`, split
//! over 4 shards each with its own IVF index (64 cells, 4 probed) and a
//! 256-entry response cache, behind the service. One query in five
//! comes from a 32-user hot set, so about a fifth of replies are cache
//! hits. The operation is one reply that misses the cache.
//!
//! The catalogue has as many item categories as a shard's index has
//! cells, every category equally large and far tighter than the gaps
//! between them, so the index's farthest-point start takes one item of
//! each and every cell is one category: 1024 items a cell and shard,
//! 16 384 candidates a miss, whatever the seed and whoever asks. With
//! 512 categories cut into 64 cells as k-means pleased, the candidates
//! per miss ran from 11.5k to 13.4k by seed and the operation's latency
//! with them (quartile spread 0.13 over ten seeds on a quiet box, half
//! the bound, before the clock added anything).

use super::exact::{report_loop_probe, report_service_counters, K};
use super::{closed_loop_sampled, one_worker_service, report_loop, set_median, IVF_SEED};
use crate::gen;
use crate::oracle;
use crate::report::{out_dir, Report};
use crate::stats;
use crate::trace::{span_if, Tracer};
use gb_eval::timing::timed;
use gb_graph::BitMatrix;
use gb_models::EmbeddingSnapshot;
use gb_serve::{
    open_mmap_snapshot, save_mmap_snapshot, EngineConfig, IvfIndex, RecommendService, Retrieval,
    ShardPlan, ShardedConfig, ShardedEngine,
};
use gb_tensor::{kmeans, Matrix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::time::Instant;

const N_SHARDS: usize = 4;
const N_CLUSTERS: usize = 64;
const N_PROBE: usize = 4;
const CACHE_CAPACITY: usize = 256;
const HOT_USERS: usize = 32;
const SEEN_PER_USER: usize = 20;
const N_CHECKED: usize = 128;
/// Mean recall@10 against the exact reference below which the run is
/// not correct. A user's best items share a category and the cell that
/// holds it is among the 4 probed, so every seed tried measured 1.0; a
/// reply that loses one item in ten to a broken index falls below.
const RECALL_FLOOR: f64 = 0.95;
/// The engine's k-means sweeps per IVF build (private to `gb_serve`).
const KMEANS_ITERS: usize = 5;

/// `(users, items, width per table, item categories)`: one category
/// per index cell.
fn shape(smoke: bool) -> (usize, usize, usize, usize) {
    if smoke {
        (256, 16_384, 16, N_CLUSTERS)
    } else {
        (2048, 262_144, 16, N_CLUSTERS)
    }
}

struct Tier {
    /// The mapped tables every shard slices.
    snapshot: EmbeddingSnapshot,
    engine: ShardedEngine,
    checked: Vec<(u32, Vec<u64>)>,
}

fn config(cache_capacity: usize) -> ShardedConfig {
    ShardedConfig {
        n_shards: N_SHARDS,
        engine: EngineConfig {
            retrieval: Retrieval::Ivf {
                n_clusters: N_CLUSTERS,
                n_probe: N_PROBE,
            },
            cache_capacity,
            ..EngineConfig::default()
        },
        ..ShardedConfig::default()
    }
}

/// Generates the catalogue, round-trips it through the mappable file,
/// installs the seen filter and answers one query so every shard's
/// index is built before anything is timed.
fn build(seed: u64, smoke: bool, mut t: Option<&mut Tracer>) -> Tier {
    let (n_users, n_items, d, n_cats) = shape(smoke);
    let generated = gen::clustered_snapshot(seed, n_users, n_items, d, n_cats);
    let path = out_dir().join(format!("snapshot.{}.gbs", std::process::id()));
    span_if(&mut t, "serve.mmap.save", || {
        save_mmap_snapshot(&generated, &path)
    })
    .expect("write the mappable snapshot under benchmark/out");
    drop(generated);
    let snapshot = span_if(&mut t, "serve.mmap.open", || open_mmap_snapshot(&path))
        .expect("open the snapshot just written");
    // The mapping outlives the name; nothing is left behind.
    let _ = std::fs::remove_file(&path);
    let rows = gen::seen_rows(seed, n_users, n_items, SEEN_PER_USER);
    let filter = BitMatrix::from_rows(&rows, n_items);
    let checked = gen::check_users(seed, n_users, N_CHECKED)
        .into_iter()
        .map(|u| (u, filter.row_words(u as usize).to_vec()))
        .collect();
    let engine = ShardedEngine::with_config(snapshot.clone(), config(CACHE_CAPACITY))
        .with_seen_filter(filter);
    engine
        .try_recommend(0, K)
        .expect("first query builds every shard's index");
    Tier {
        snapshot,
        engine,
        checked,
    }
}

/// The traffic mix: one query in five from the hot set, the rest a
/// reshuffled sweep over everyone else — a swept user comes round again
/// only after every other one, long after the 256-entry caches dropped
/// it, so swept queries are the cache misses and hot ones (after their
/// first) the hits.
struct Mix {
    rng: StdRng,
    sweep: Vec<u32>,
    at: usize,
}

impl Mix {
    fn new(seed: u64, n_users: u32) -> Self {
        Self {
            rng: gen::rng(seed, 10),
            sweep: (HOT_USERS as u32..n_users).collect(),
            at: usize::MAX,
        }
    }

    /// The next user to query and whether the query is a cache miss.
    fn next(&mut self) -> (u32, bool) {
        if self.rng.gen_range(0..5u32) == 0 {
            return (self.rng.gen_range(0..HOT_USERS as u32), false);
        }
        if self.at >= self.sweep.len() {
            self.sweep.shuffle(&mut self.rng);
            self.at = 0;
        }
        self.at += 1;
        (self.sweep[self.at - 1], true)
    }
}

/// Mean recall@10 of the served lists against the exact reference.
fn check_recall(
    r: &mut Report,
    snapshot: &EmbeddingSnapshot,
    checked: &[(u32, Vec<u64>)],
    svc: &RecommendService<ShardedEngine>,
) -> f64 {
    let recalls: Vec<f64> = checked
        .iter()
        .map(|(user, seen)| {
            let want = oracle::reference(snapshot, Some(seen), None, *user, K);
            svc.try_recommend(*user, K)
                .map_or(0.0, |got| oracle::recall(&got, &want))
        })
        .collect();
    let mean = recalls.iter().sum::<f64>() / recalls.len() as f64;
    r.check(
        format!(
            "mean recall@10 {mean:.4} over {} users is at least {RECALL_FLOOR}",
            recalls.len()
        ),
        mean >= RECALL_FLOOR,
    );
    mean
}

pub fn run(r: &mut Report) {
    let a = r.args.clone();
    super::share_one_cpu(r);
    let ((snapshot, checked, svc), setup_s, reps) = super::repeat_setup(a.smoke, || {
        let tier = build(a.seed, a.smoke, None);
        (tier.snapshot, tier.checked, one_worker_service(tier.engine))
    });
    r.set("setup_s", setup_s, reps);
    // Every reply counts towards the rate; the latency population is
    // the misses, so that its low percentile is a miss and not a hit.
    let mut mix = Mix::new(a.seed, snapshot.n_users() as u32);
    let mut query = || {
        let (user, miss) = mix.next();
        (svc.try_recommend(user, K).is_ok(), miss)
    };
    closed_loop_sampled(if a.smoke { 0.2 } else { 2.0 }, &mut query);
    let s = closed_loop_sampled(a.seconds, &mut query);
    report_loop(
        r,
        "replies (latency of misses), 1 client + 1 worker",
        &s,
        1.0,
        95.0,
    );

    let recall = check_recall(r, &snapshot, &checked, &svc);
    r.set("quality_at_10", recall, checked.len());
    r.check(
        "no shard failed, nothing shed, expired or panicked",
        svc.engine().shard_failures().iter().sum::<u64>()
            + svc.engine().degraded_served()
            + (svc.requests_shed() + svc.requests_expired() + svc.worker_panics()) as u64
            == 0,
    );
    r.set("peak_rss_mb", crate::host::peak_rss_mb(), 1);
}

pub fn trace(r: &mut Report, t: &mut Tracer) {
    let a = r.args.clone();
    super::share_one_cpu(r);
    let tier = build(a.seed, a.smoke, Some(t));
    let (snapshot, checked) = (tier.snapshot, tier.checked);
    r.set(
        "serve.mmap.save_ms",
        t.durations_us("serve.mmap.save")[0] / 1e3,
        1,
    );
    r.set(
        "serve.mmap.open_us",
        t.durations_us("serve.mmap.open")[0],
        1,
    );
    r.set("models.snapshot_bytes", snapshot.size_bytes() as f64, 1);

    // Each shard's index built directly, as the engine builds it.
    let plan = ShardPlan::balanced(snapshot.n_items(), N_SHARDS);
    let slices: Vec<EmbeddingSnapshot> = plan
        .ranges()
        .iter()
        .map(|&(start, len)| snapshot.slice_items(start, len))
        .collect();
    let indexes: Vec<IvfIndex> = slices
        .iter()
        .enumerate()
        .map(|(s, slice)| {
            t.span("serve.ivf.build", s as u64, None, || {
                IvfIndex::build(slice, 1, N_CLUSTERS, IVF_SEED, true)
            })
            .0
        })
        .collect();
    let build_s: Vec<f64> = t
        .durations_us("serve.ivf.build")
        .iter()
        .map(|us| us / 1e6)
        .collect();
    set_median(r, "serve.ivf.build_s", &build_s);
    let index_bytes: usize = indexes.iter().map(IvfIndex::size_bytes).sum();
    r.set("serve.ivf.size_bytes", index_bytes as f64, N_SHARDS);
    let first = &slices[0];
    let (od, concat_cols) = (first.own_dim(), first.own_dim() + first.social_dim());
    let concat = Matrix::from_fn(first.n_items(), concat_cols, |row, c| {
        if c < od {
            first.item_own().get(row, c)
        } else {
            first.item_social().get(row, c - od)
        }
    });
    let (_, kmeans_s) = timed(|| kmeans::kmeans(&concat, N_CLUSTERS, KMEANS_ITERS, IVF_SEED));
    r.set("tensor.kmeans_s", kmeans_s, 1);
    drop(concat);

    // The reply chain on cache misses: service over the cached tier,
    // replayed on a cache-less router (a replay on the same router
    // would be a cache hit and price nothing).
    let router = ShardedEngine::with_config(snapshot.clone(), config(0)).with_seen_filter(
        BitMatrix::from_rows(
            &gen::seen_rows(
                a.seed,
                snapshot.n_users(),
                snapshot.n_items(),
                SEEN_PER_USER,
            ),
            snapshot.n_items(),
        ),
    );
    router
        .try_recommend(0, K)
        .expect("build the replay router's indexes");
    // The router's own stage clocks, read before and after the sampled
    // queries so the index-building first query is left out.
    let stage_clocks = |router: &ShardedEngine| -> Vec<(usize, f64)> {
        let b = router.latency_breakdown();
        (0..b.n_stages())
            .map(|i| (b.stage(i).n_samples(), b.stage(i).total_secs()))
            .collect()
    };
    let clocks_before = stage_clocks(&router);
    let svc = one_worker_service(tier.engine);
    let n_users = snapshot.n_users() as u32;
    let n_ops = if a.smoke { 40 } else { 400 };
    let mut rng = gen::rng(a.seed, 11);
    let mut candidates = Vec::new();
    for op in 0..n_ops {
        // Above the hot set, so the service side is a miss too.
        let user = rng.gen_range(HOT_USERS as u32..n_users);
        let (ok, reply) = t.span("serve.service", op, None, || {
            svc.try_recommend(user, K).is_ok()
        });
        t.span("serve.router", op, Some(reply), || {
            router.try_recommend(user, K).is_ok()
        });
        let scored: usize = indexes
            .iter()
            .zip(&slices)
            .map(|(index, slice)| {
                index
                    .probe_cells(slice, user, N_PROBE)
                    .into_iter()
                    .map(|cell| index.list(cell).len())
                    .sum::<usize>()
            })
            .sum();
        candidates.push(scored as f64);
        r.attempted += 1;
        r.failed += u64::from(!ok);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    r.set(
        "serve.ivf.candidates_per_query",
        mean(&candidates),
        candidates.len(),
    );
    set_median(
        r,
        "serve.service.reply_us",
        &t.durations_us("serve.service"),
    );
    set_median(r, "serve.service.self_us", &t.self_us("serve.service"));
    let router_us = t.durations_us("serve.router");
    set_median(r, "serve.router.query_us", &router_us);
    let stage_us: Vec<f64> = clocks_before
        .iter()
        .zip(stage_clocks(&router))
        .map(|(before, after)| (after.1 - before.1) * 1e6 / (after.0 - before.0).max(1) as f64)
        .collect();
    let (shard_us, merge_us) = (&stage_us[..N_SHARDS], stage_us[N_SHARDS]);
    r.set("serve.router.shard_mean_us", mean(shard_us), n_ops as usize);
    r.set("serve.router.merge_mean_us", merge_us, n_ops as usize);
    r.set(
        "serve.router.self_us",
        (mean(&router_us) - shard_us.iter().sum::<f64>() - merge_us).max(0.0),
        router_us.len(),
    );

    // The traffic mix through the service: cache behaviour, the service
    // counters, and what recording spans costs.
    let mut mix = Mix::new(a.seed, n_users);
    report_loop_probe(r, t, if a.smoke { 0.2 } else { 1.5 }, || {
        svc.try_recommend(mix.next().0, K).is_ok()
    });
    let (hits, misses) = svc
        .engine()
        .shards()
        .iter()
        .map(|s| s.cache_stats())
        .fold((0, 0), |acc, s| (acc.0 + s.0, acc.1 + s.1));
    r.set(
        "serve.cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        (hits + misses) as usize,
    );
    let hit_us: Vec<f64> = (0..HOT_USERS as u32)
        .map(|user| {
            // Served once, then timed: the second answer is a hit on
            // every shard.
            let _ = svc.engine().try_recommend(user, K);
            let start = Instant::now();
            let _ = std::hint::black_box(svc.engine().try_recommend(user, K));
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    r.set("serve.cache.hit_us", stats::median(&hit_us), hit_us.len());
    report_service_counters(r, &svc);
    check_recall(r, &snapshot, &checked, &svc);
}
