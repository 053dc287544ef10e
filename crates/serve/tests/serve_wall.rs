//! Bitwise wall for single-user serving: the replies of
//! `QueryEngine::try_recommend`, `ShardedEngine::try_recommend` and
//! `RecommendService::try_recommend_versioned` must reproduce FNV-1a
//! fingerprints over `(version, item, score bits)` — plus the router's
//! `missing_shards` — recorded while the engines still answered one user
//! through a dedicated single-user scoring path.
//!
//! The other serving walls compare one engine with another (sharded with
//! single, IVF with exact, batched with sequential); this one holds every
//! case to recorded bits, so a change that moves both sides of such a
//! comparison at once still fails here. A deliberate numerics change
//! re-records the constants and says so; a refactor never touches them.
//!
//! Every case sweeps all users at `k ∈ {0, 7, > n_items}`. On a mismatch
//! the test prints the whole computed table, ready to paste.

use gb_graph::BitMatrix;
use gb_models::{EmbeddingSnapshot, SnapshotDelta};
use gb_serve::{
    EngineConfig, QueryEngine, RecommendService, Retrieval, ScoredItem, ServeEngine, ServiceConfig,
    ShardedConfig, ShardedEngine, SnapshotHandle,
};
use gb_tensor::Matrix;

const N_USERS: usize = 9;
const N_ITEMS: usize = 203;
/// Larger than the catalogue, appended items included.
const KS: [usize; 3] = [0, 7, 300];

/// FNV-1a over bytes; `f32`s hash as their little-endian bits.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// One reply: its version, its length, then every `(item, score)`.
    fn reply(&mut self, version: u64, items: &[ScoredItem]) {
        self.u64(version);
        self.u64(items.len() as u64);
        for e in items {
            self.bytes(&e.item.to_le_bytes());
            self.bytes(&e.score.to_bits().to_le_bytes());
        }
    }
}

/// A seeded stream of floats uniform in `[-0.5, 0.5)`.
struct Stream(u32);

impl Stream {
    fn next(&mut self) -> f32 {
        self.0 = self.0.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        (self.0 >> 8) as f32 / (1u32 << 24) as f32 - 0.5
    }
}

/// A seeded snapshot: widths 12 and 20, so both blends run a vector body
/// and a tail, and item rows drawn around 7 centers so IVF cells differ
/// in size.
fn snapshot(seed: u32) -> EmbeddingSnapshot {
    let mut s = Stream(seed);
    let centers: Vec<f32> = (0..7 * 32).map(|_| 3.0 * s.next()).collect();
    let mut table = |rows: usize, d: usize, off: usize, clustered: bool| {
        Matrix::from_fn(rows, d, |r, c| {
            let center = if clustered {
                centers[(r % 7) * 32 + off + c]
            } else {
                0.0
            };
            center + s.next()
        })
    };
    let user_own = table(N_USERS, 12, 0, false);
    let item_own = table(N_ITEMS, 12, 0, true);
    let user_social = table(N_USERS, 20, 12, false);
    let item_social = table(N_ITEMS, 20, 12, true);
    EmbeddingSnapshot::new(0.35, user_own, item_own, user_social, item_social)
}

/// A seeded delta: a few replaced item rows, one replaced user row and
/// three appended items.
fn delta(prev: &EmbeddingSnapshot, seed: u32) -> SnapshotDelta {
    let mut s = Stream(seed);
    let mut row = |w: usize| (0..w).map(|_| 2.0 * s.next()).collect::<Vec<f32>>();
    let mut d = SnapshotDelta::new();
    for item in [3u32, 58, 117, 202] {
        d = d.set_item(item, row(prev.own_dim()), row(prev.social_dim()));
    }
    d = d.set_user(4, row(prev.own_dim()), row(prev.social_dim()));
    for _ in 0..3 {
        d = d.append_item(row(prev.own_dim()), row(prev.social_dim()));
    }
    d
}

/// A seen filter over every user (a stride of items per user) and a deal
/// filter blocking every ninth item.
fn filters() -> (BitMatrix, BitMatrix) {
    let mut seen = BitMatrix::zeros(N_USERS, N_ITEMS);
    for u in 0..N_USERS {
        for n in (u..N_ITEMS).step_by(5 + u) {
            seen.set(u, n);
        }
    }
    let mut deal = BitMatrix::zeros(1, N_ITEMS);
    for n in (2..N_ITEMS).step_by(9) {
        deal.set(0, n);
    }
    (seen, deal)
}

fn ivf(n_probe: usize, packed: bool) -> EngineConfig {
    EngineConfig {
        retrieval: Retrieval::Ivf {
            n_clusters: 6,
            n_probe,
        },
        ivf_packed: packed,
        ..Default::default()
    }
}

fn sharded_cfg(n_shards: usize, engine: EngineConfig) -> ShardedConfig {
    ShardedConfig {
        n_shards,
        engine,
        ..Default::default()
    }
}

fn service<E: ServeEngine>(engine: E) -> RecommendService<E> {
    RecommendService::with_config(
        engine,
        ServiceConfig {
            workers: 1,
            ..Default::default()
        },
    )
}

/// Every user at every `k` in [`KS`], `repeat` times each, through `ask`.
fn sweep(h: &mut Fnv, repeat: usize, mut ask: impl FnMut(&mut Fnv, u32, usize)) {
    for &k in &KS {
        for user in 0..N_USERS as u32 {
            for _ in 0..repeat {
                ask(h, user, k);
            }
        }
    }
}

fn ask_engine(e: &QueryEngine) -> impl FnMut(&mut Fnv, u32, usize) + '_ {
    |h, user, k| {
        let version = e.handle().version();
        let items = e.try_recommend(user, k).expect("engine reply");
        h.reply(version, &items);
    }
}

fn ask_router(e: &ShardedEngine) -> impl FnMut(&mut Fnv, u32, usize) + '_ {
    |h, user, k| {
        let r = e.try_recommend(user, k).expect("router reply");
        h.reply(r.version, &r.items);
        h.u64(r.missing_shards.len() as u64);
        r.missing_shards.iter().for_each(|&s| h.u64(s as u64));
    }
}

fn ask_service<E: ServeEngine>(s: &RecommendService<E>) -> impl FnMut(&mut Fnv, u32, usize) + '_ {
    |h, user, k| {
        let (version, items) = s.try_recommend_versioned(user, k).expect("service reply");
        h.reply(version, &items);
    }
}

fn engine_print(e: &QueryEngine, repeat: usize) -> u64 {
    let mut h = Fnv::new();
    sweep(&mut h, repeat, ask_engine(e));
    h.0
}

fn router_print(e: &ShardedEngine, repeat: usize) -> u64 {
    let mut h = Fnv::new();
    sweep(&mut h, repeat, ask_router(e));
    h.0
}

fn service_print<E: ServeEngine>(s: &RecommendService<E>, repeat: usize) -> u64 {
    let mut h = Fnv::new();
    sweep(&mut h, repeat, ask_service(s));
    h.0
}

/// Compares the computed table with the recorded one, printing every
/// computed entry on a mismatch.
fn check(got: &[(String, u64)], want: &[(&str, u64)]) {
    let names: Vec<&str> = got.iter().map(|(n, _)| n.as_str()).collect();
    let recorded: Vec<&str> = want.iter().map(|&(n, _)| n).collect();
    let table: String = got
        .iter()
        .map(|(n, f)| format!("    (\"{n}\", {f}),\n"))
        .collect();
    assert_eq!(names, recorded, "case list changed; computed:\n{table}");
    let wrong: Vec<&str> = got
        .iter()
        .zip(want)
        .filter(|((_, f), &(_, w))| *f != w)
        .map(|((n, _), _)| n.as_str())
        .collect();
    assert!(wrong.is_empty(), "{wrong:?} moved; computed:\n{table}");
}

#[test]
fn exact_replies_are_pinned() {
    let snap = snapshot(11);
    let mut got = Vec::new();
    let engine = QueryEngine::new(snap.clone());
    got.push(("engine".to_string(), engine_print(&engine, 1)));
    // Recorded while the catalogue walk's block size was a setting, with
    // 64-item blocks: a block size never changes a reply.
    let small_blocks = QueryEngine::new(snap.clone());
    got.push(("engine_block64".to_string(), engine_print(&small_blocks, 1)));
    for n_shards in [1usize, 3] {
        let router = ShardedEngine::with_config(
            snap.clone(),
            sharded_cfg(n_shards, EngineConfig::default()),
        );
        got.push((format!("router{n_shards}"), router_print(&router, 1)));
    }
    let svc = service(QueryEngine::new(snap.clone()));
    got.push(("service".to_string(), service_print(&svc, 1)));
    let svc = service(ShardedEngine::new(snap, 3));
    got.push(("service_router3".to_string(), service_print(&svc, 1)));
    check(&got, EXACT);
}

#[test]
fn ivf_replies_are_pinned() {
    let snap = snapshot(23);
    let mut got = Vec::new();
    for (probe, n_probe) in [("full", 6usize), ("partial", 2)] {
        for (layout, packed) in [("packed", true), ("unpacked", false)] {
            let tag = format!("{probe}_{layout}");
            let engine = QueryEngine::with_config(snap.clone(), ivf(n_probe, packed));
            got.push((format!("engine_{tag}"), engine_print(&engine, 1)));
            for n_shards in [1usize, 3] {
                let router = ShardedEngine::with_config(
                    snap.clone(),
                    sharded_cfg(n_shards, ivf(n_probe, packed)),
                );
                got.push((format!("router{n_shards}_{tag}"), router_print(&router, 1)));
            }
            let svc = service(QueryEngine::with_config(snap.clone(), ivf(n_probe, packed)));
            got.push((format!("service_{tag}"), service_print(&svc, 1)));
        }
    }
    check(&got, IVF);
}

#[test]
fn filtered_replies_are_pinned() {
    let snap = snapshot(37);
    let (seen, deal) = filters();
    let mut got = Vec::new();
    for (mode, cfg) in [("exact", EngineConfig::default()), ("ivf", ivf(2, true))] {
        let engine =
            QueryEngine::with_config(snap.clone(), cfg.clone()).with_seen_filter(seen.clone());
        engine.set_deal_filter(deal.clone());
        got.push((format!("engine_{mode}"), engine_print(&engine, 1)));
        let router = ShardedEngine::with_config(snap.clone(), sharded_cfg(3, cfg.clone()))
            .with_seen_filter(seen.clone());
        router.set_deal_filter(deal.clone());
        got.push((format!("router3_{mode}"), router_print(&router, 1)));
        let engine = QueryEngine::with_config(snap.clone(), cfg).with_seen_filter(seen.clone());
        engine.set_deal_filter(deal.clone());
        let svc = service(engine);
        got.push((format!("service_{mode}"), service_print(&svc, 1)));
    }
    check(&got, FILTERED);
}

#[test]
fn cached_repeats_are_pinned() {
    let snap = snapshot(41);
    let (seen, deal) = filters();
    let cached = EngineConfig {
        cache_capacity: 16,
        ..Default::default()
    };
    let mut got = Vec::new();
    let engine = QueryEngine::with_config(snap.clone(), cached.clone()).with_seen_filter(seen);
    engine.set_deal_filter(deal);
    let print = engine_print(&engine, 2);
    let (hits, misses) = engine.cache_stats();
    got.push(("engine".to_string(), print));
    got.push(("engine_stats".to_string(), hits << 32 | misses));
    let router = ShardedEngine::with_config(snap.clone(), sharded_cfg(3, cached.clone()));
    got.push(("router3".to_string(), router_print(&router, 2)));
    let shard_stats = router.shards().iter().fold(0u64, |acc, s| {
        acc.wrapping_mul(1_000_003) ^ (s.cache_stats().0 << 32 | s.cache_stats().1)
    });
    got.push(("router3_stats".to_string(), shard_stats));
    let svc = service(QueryEngine::with_config(snap, cached));
    got.push(("service".to_string(), service_print(&svc, 2)));
    let (hits, misses) = svc.engine().cache_stats();
    got.push(("service_stats".to_string(), hits << 32 | misses));
    check(&got, CACHED);
}

#[test]
fn replies_across_publishes_are_pinned() {
    let first = snapshot(53);
    let second = snapshot(59);
    let step = delta(&second, 61);
    let incremental = |n_probe: usize| EngineConfig {
        ivf_incremental: true,
        ..ivf(n_probe, true)
    };
    let handle = SnapshotHandle::new(first);
    let exact = QueryEngine::with_handle(handle.clone(), EngineConfig::default());
    let ivf_full = QueryEngine::with_handle(handle.clone(), incremental(6));
    let ivf_partial = QueryEngine::with_handle(handle.clone(), incremental(2));
    let router = ShardedEngine::with_handle(handle.clone(), sharded_cfg(3, incremental(2)));
    let svc = service(QueryEngine::with_handle(handle.clone(), incremental(2)));
    let mut got = Vec::new();
    for stage in ["initial", "full", "delta"] {
        match stage {
            "full" => {
                handle.publish(second.clone());
            }
            "delta" => {
                handle.publish_delta(&step);
            }
            _ => {}
        }
        got.push((format!("engine_exact_{stage}"), engine_print(&exact, 1)));
        got.push((
            format!("engine_ivf_full_{stage}"),
            engine_print(&ivf_full, 1),
        ));
        got.push((
            format!("engine_ivf_partial_{stage}"),
            engine_print(&ivf_partial, 1),
        ));
        got.push((
            format!("router3_ivf_partial_{stage}"),
            router_print(&router, 1),
        ));
        got.push((
            format!("service_ivf_partial_{stage}"),
            service_print(&svc, 1),
        ));
    }
    assert_eq!(ivf_partial.ivf_index_version(), Some(3));
    check(&got, PUBLISHED);
}

const EXACT: &[(&str, u64)] = &[
    ("engine", 4_193_892_135_938_716_290),
    ("engine_block64", 4_193_892_135_938_716_290),
    ("router1", 8_880_366_287_411_660_290),
    ("router3", 8_880_366_287_411_660_290),
    ("service", 4_193_892_135_938_716_290),
    ("service_router3", 4_193_892_135_938_716_290),
];
const IVF: &[(&str, u64)] = &[
    ("engine_full_packed", 17_280_440_451_635_530_147),
    ("router1_full_packed", 8_068_875_381_774_020_611),
    ("router3_full_packed", 8_068_875_381_774_020_611),
    ("service_full_packed", 17_280_440_451_635_530_147),
    ("engine_full_unpacked", 17_280_440_451_635_530_147),
    ("router1_full_unpacked", 8_068_875_381_774_020_611),
    ("router3_full_unpacked", 8_068_875_381_774_020_611),
    ("service_full_unpacked", 17_280_440_451_635_530_147),
    ("engine_partial_packed", 4_379_510_831_137_913_163),
    ("router1_partial_packed", 1_408_489_292_141_385_579),
    ("router3_partial_packed", 14_114_174_578_730_147_060),
    ("service_partial_packed", 4_379_510_831_137_913_163),
    ("engine_partial_unpacked", 4_379_510_831_137_913_163),
    ("router1_partial_unpacked", 1_408_489_292_141_385_579),
    ("router3_partial_unpacked", 14_114_174_578_730_147_060),
    ("service_partial_unpacked", 4_379_510_831_137_913_163),
];
const FILTERED: &[(&str, u64)] = &[
    ("engine_exact", 2_360_112_451_436_690_445),
    ("router3_exact", 17_830_203_845_191_161_517),
    ("service_exact", 2_360_112_451_436_690_445),
    ("engine_ivf", 3_177_869_516_807_097_364),
    ("router3_ivf", 5_523_944_560_259_861_240),
    ("service_ivf", 3_177_869_516_807_097_364),
];
const CACHED: &[(&str, u64)] = &[
    ("engine", 4_347_922_142_118_581_133),
    ("engine_stats", 115_964_117_019),
    ("router3", 4_335_748_095_099_870_789),
    ("router3_stats", 8_549_492_593_520_921_989),
    ("service", 13_231_659_874_791_195_045),
    ("service_stats", 115_964_117_019),
];
const PUBLISHED: &[(&str, u64)] = &[
    ("engine_exact_initial", 13_131_104_457_704_275_897),
    ("engine_ivf_full_initial", 13_131_104_457_704_275_897),
    ("engine_ivf_partial_initial", 9_797_059_596_545_147_915),
    ("router3_ivf_partial_initial", 16_036_244_165_970_044_809),
    ("service_ivf_partial_initial", 9_797_059_596_545_147_915),
    ("engine_exact_full", 6_493_235_813_989_452_907),
    ("engine_ivf_full_full", 6_493_235_813_989_452_907),
    ("engine_ivf_partial_full", 14_716_578_172_161_079_893),
    ("router3_ivf_partial_full", 14_669_313_119_454_589_308),
    ("service_ivf_partial_full", 14_716_578_172_161_079_893),
    ("engine_exact_delta", 996_317_255_158_947_979),
    ("engine_ivf_full_delta", 996_317_255_158_947_979),
    ("engine_ivf_partial_delta", 8_507_976_040_379_683_018),
    ("router3_ivf_partial_delta", 4_905_847_257_448_679_591),
    ("service_ivf_partial_delta", 8_507_976_040_379_683_018),
];
