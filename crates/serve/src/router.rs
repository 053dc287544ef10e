//! Scatter-gather serving over a sharded catalogue.
//!
//! One [`QueryEngine`](crate::engine::QueryEngine) owns the whole item
//! catalogue, which caps a deployment at whatever one snapshot, seen
//! filter and IVF build fit in RAM. [`ShardedEngine`] lifts that cap: a
//! [`ShardPlan`] splits the catalogue into N contiguous ranges, each
//! scored by the core under every `QueryEngine` (cache, own IVF index,
//! and the one catalogue-wide seen filter probed at the shard's item
//! offset); a query *scatters* to every shard with its zero-copy
//! snapshot slice, *gathers* the per-shard top-K, and merges.
//!
//! ## Why the merge is provably bit-identical
//!
//! Three facts compose into the identity the proptests pin down
//! (`shard_proptests.rs`):
//!
//! 1. **Per-item scores are position-independent.** A score is a pure
//!    function of `(user row, item row, α)`; the blocked kernel's
//!    accumulation order never depends on where in a table the item row
//!    sits, so shard-local scores are bit-identical to single-engine
//!    scores for the same global item.
//! 2. **Per-shard top-k is a superset of the global top-k's members in
//!    that shard's range.** Every member of the global top-k that lives
//!    in shard `s` would also make shard `s`'s local top-k (the local
//!    candidate set is a subset, so local competition is weaker).
//! 3. **The heap's output depends only on the offered set.**
//!    [`TopK`] selects under a strict total order (descending score,
//!    ascending item id; non-finite scores dropped at the door on both
//!    paths), so re-offering the gathered, id-translated candidates to
//!    a fresh `TopK` reproduces the single-engine selection exactly —
//!    arrival order, shard count, and shard boundaries all cancel out.
//!
//! (IVF caveat: with *partial* probing, a sharded deployment clusters
//! each shard independently, so its candidate sets differ from a
//! single-engine build's — identity holds for exact retrieval and for
//! full-probe IVF, which is exact by construction.)
//!
//! ## One version, every shard
//!
//! The router holds *one* [`SnapshotHandle`] and one deal slot; shards
//! hold neither. A query loads the current `Arc<VersionedSnapshot>`
//! once, resolves the per-shard slice set for exactly that version
//! (built on a version's first query and kept two versions deep, through
//! the same cache as the engine's IVF indexes), reads the deal slot
//! once, and scores every shard against its snapshot slice and the one
//! deal row of that pinned pair — so a publish landing mid-scatter can
//! never tear a response across versions, and the merged response
//! reports that version. The slice sets alone hold a version's tables
//! on this tier. Publishing through [`ShardedEngine::publish`] shares
//! the tables first ([`EmbeddingSnapshot::to_shared`]), so the N slices
//! of a version alias one copy of the catalogue.

use crate::engine::{
    check_seen_filter, Core, DealSlot, EngineConfig, ServeEngine, VersionCache,
    VersionedBatchResult,
};
use crate::error::{check_users, lock_recover, ServeError};
use crate::faults::FaultPlan;
use crate::shard::ShardPlan;
use crate::topk::{ScoredItem, TopK};
use gb_eval::timing::LatencyBreakdown;
use gb_graph::BitMatrix;
use gb_models::{DeltaStamp, EmbeddingSnapshot, SnapshotHandle, VersionedSnapshot};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tuning knobs for [`ShardedEngine`].
#[derive(Clone, Debug)]
pub struct ShardedConfig {
    /// Number of catalogue shards (clamped to at least 1).
    pub n_shards: usize,
    /// How many times a failed (panicked) shard scatter is retried
    /// before the shard counts as missing for that query. Retries hit
    /// the same shard — its state is valid after a caught panic
    /// (see `crate::error`) — so a transient failure heals in-query.
    pub scatter_retries: usize,
    /// Degraded-response policy when shards are still missing after
    /// retries: `true` serves the merge of the surviving shards, with
    /// the missing shards listed on the response
    /// ([`DegradedResponse::missing_shards`]); `false` (the default)
    /// fails the query with [`ServeError::ShardFailed`]. Either way a
    /// query where *every* shard failed is an error — never a silently
    /// incomplete ranking.
    pub allow_partial: bool,
    /// Per-shard scoring tuning. `cache_capacity` and `user_block` apply
    /// per shard; `retrieval: Ivf` builds one independent index per
    /// shard (each clustering only its own item range — build cost per
    /// shard shrinks superlinearly with the slice).
    pub engine: EngineConfig,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        Self {
            n_shards: 4,
            scatter_retries: 1,
            allow_partial: false,
            engine: EngineConfig::default(),
        }
    }
}

/// A scatter-gather response that may be missing shards, under the
/// [`ShardedConfig::allow_partial`] policy. `missing_shards` empty means
/// the response is complete — bit-identical to a single engine's;
/// non-empty means the ranking was merged from the surviving shards
/// only, and items homed on the listed shards are absent.
#[derive(Clone, Debug)]
pub struct DegradedResponse {
    /// The snapshot version every surviving contribution was pinned to.
    pub version: u64,
    /// The merged ranking (complete, or partial per `missing_shards`).
    pub items: Arc<Vec<ScoredItem>>,
    /// Shards (plan order indices, ascending) that produced no answer
    /// after retries. Empty ⇔ complete.
    pub missing_shards: Vec<usize>,
}

/// The batched counterpart of [`DegradedResponse`]: per-user merged
/// rankings in input order, all pinned to one version, with one shared
/// `missing_shards` list (a shard fails the whole scattered block, so
/// every user in the batch is missing the same shards).
#[derive(Clone, Debug)]
pub struct DegradedBatch {
    /// The snapshot version every surviving contribution was pinned to.
    pub version: u64,
    /// Per-user merged rankings, input order; duplicates share an `Arc`.
    pub results: Vec<Arc<Vec<ScoredItem>>>,
    /// Shards that produced no answer after retries. Empty ⇔ complete.
    pub missing_shards: Vec<usize>,
}

/// The per-shard slice set of one published version: slice `s` is the
/// sub-snapshot of shard `s`'s item range, tagged with the *global*
/// version so shard cores cache and build against it.
type ShardSet = Vec<Arc<VersionedSnapshot>>;

/// N shard scoring cores behind one handle, merged under the
/// single-engine total order — bit-identical to an unsharded
/// [`QueryEngine`](crate::engine::QueryEngine) at any shard count (see
/// the module docs for the argument, and `shard_proptests.rs` for the
/// property tests).
pub struct ShardedEngine {
    handle: SnapshotHandle,
    plan: ShardPlan,
    /// One scoring core per shard, plan order, each starting at its
    /// range's first global item.
    shards: Vec<Core>,
    /// Slice sets of the two newest versions queried.
    sets: VersionCache<ShardSet>,
    /// The cross-shard-atomic deal-filter slot: one generation and one
    /// catalogue-wide row, installed together (see
    /// [`ShardedEngine::set_deal_filter`]); scatters pass every shard the
    /// same `(generation, row)`, probed at the shard's item offset.
    deal: DealSlot,
    /// Failed scatter attempts after which the shard counts as missing.
    retries: usize,
    /// Serve partial merges (flagged) instead of failing the query.
    allow_partial: bool,
    /// Caught scatter panics per shard (each failed attempt counts).
    shard_failures: Vec<AtomicU64>,
    /// Queries served with at least one shard missing.
    degraded: AtomicU64,
    /// Scripted fault schedule (tests/soaks): consulted per shard per
    /// scatter and inside `set_deal_filter`'s install window.
    faults: Option<Arc<FaultPlan>>,
    /// Per-shard scatter latency plus the merge stage, each a count and
    /// a total, for attribution ("which shard drags the mean?").
    timing: Mutex<LatencyBreakdown>,
}

impl ShardedEngine {
    /// A sharded engine over `snapshot` with `n_shards` shards and
    /// default per-shard tuning.
    pub fn new(snapshot: EmbeddingSnapshot, n_shards: usize) -> Self {
        Self::with_config(
            snapshot,
            ShardedConfig {
                n_shards,
                ..Default::default()
            },
        )
    }

    /// A sharded engine with explicit tuning. The snapshot's tables are
    /// shared once up front so the per-shard slices are zero-copy views.
    pub fn with_config(snapshot: EmbeddingSnapshot, cfg: ShardedConfig) -> Self {
        Self::with_handle(SnapshotHandle::new(snapshot.to_shared()), cfg)
    }

    /// A sharded engine over a shared [`SnapshotHandle`] — snapshots
    /// published to the handle (e.g. by a trainer mid-run) are served by
    /// the very next query, every shard switching atomically to the new
    /// version. Prefer publishing via [`ShardedEngine::publish`], which
    /// shares the tables before they reach the handle; an owned snapshot
    /// (the handle's first, or one published directly) costs one sharing
    /// copy at its first query. Construction itself touches no table.
    pub fn with_handle(handle: SnapshotHandle, cfg: ShardedConfig) -> Self {
        let plan = ShardPlan::balanced(handle.load().snapshot().n_items(), cfg.n_shards);
        let labels: Vec<String> = (0..plan.n_shards())
            .map(|s| format!("shard{s}"))
            .chain(std::iter::once("merge".to_string()))
            .collect();
        Self {
            handle,
            shards: plan
                .ranges()
                .iter()
                .map(|&(start, _)| Core::new(&cfg.engine, start))
                .collect(),
            shard_failures: (0..plan.n_shards()).map(|_| AtomicU64::new(0)).collect(),
            plan,
            sets: VersionCache::new(),
            deal: DealSlot::new(),
            retries: cfg.scatter_retries,
            allow_partial: cfg.allow_partial,
            degraded: AtomicU64::new(0),
            faults: None,
            timing: Mutex::new(LatencyBreakdown::new(labels)),
        }
    }

    /// Attaches a scripted [`FaultPlan`] (tests and soaks): consulted
    /// once per shard per scatter (where an injected panic exercises the
    /// degraded gather) and inside `set_deal_filter` just before its
    /// swap (where an injected delay widens the race the atomic install
    /// must win). Production routers carry `None`.
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Installs a seen-item filter, shared by every shard: one `Arc` of
    /// the caller's bitset, which shard `s` probes at its range start
    /// (local item `i` reads global bit `start_s + i`), so nothing is
    /// copied. Filtered items never appear in merged results. Items
    /// appended by later grow-only publishes land past the filter's
    /// columns and probe as unseen, globally and on every shard.
    ///
    /// # Panics
    /// Panics if the bitset shape disagrees with the served snapshot.
    pub fn with_seen_filter(mut self, filter: BitMatrix) -> Self {
        check_seen_filter(&filter, self.handle.load().snapshot());
        let filter = Arc::new(filter);
        for core in &mut self.shards {
            core.set_seen_filter(Arc::clone(&filter));
        }
        self
    }

    /// Installs (or replaces) the deal-state candidate filter on every
    /// shard: one global row of item bits (bit set ⇒ blocked for every
    /// user — see `gb_data::EventLog::blocked_items_at`), which each
    /// shard probes at its range start, exactly as it probes the seen
    /// filter. Each shard's response cache retires its old entries by
    /// generation, exactly as on a single engine. Items past the
    /// filter's columns (appended by later grow-only publishes, or past
    /// a filter narrower than the plan) probe as allowed, as on a single
    /// engine.
    ///
    /// The install is **atomic across shards**: it is one `Arc` swap of
    /// the `(generation, row)` pair under the deal slot's write lock.
    /// Every query reads that slot exactly once and pins all of its
    /// shard scatters to the pair it read — so a scatter racing the
    /// install serves either the old filter on *every* shard or the new
    /// filter on *every* shard, never a mix (property-tested in
    /// `fault_proptests.rs`). Queries issued after the install returns
    /// see the new filter everywhere.
    ///
    /// # Panics
    /// Panics unless the filter is exactly one row.
    pub fn set_deal_filter(&self, filter: BitMatrix) {
        assert_eq!(filter.rows(), 1, "deal filter is one row of item bits");
        if let Some(plan) = &self.faults {
            plan.at_filter_install();
        }
        self.deal.swap(Some(filter));
    }

    /// Removes the deal-state filter from every shard, through the same
    /// atomic slot swap as [`ShardedEngine::set_deal_filter`]; bumps the
    /// generation so cached responses computed under the cleared filter
    /// retire by key.
    pub fn clear_deal_filter(&self) {
        if let Some(plan) = &self.faults {
            plan.at_filter_install();
        }
        self.deal.swap(None);
    }

    /// How many times the deal-state filter has been installed, replaced,
    /// or cleared on this router.
    pub fn deal_generation(&self) -> u64 {
        self.deal.generation()
    }

    /// The global handle the router serves from; publish to it (or via
    /// [`ShardedEngine::publish`]) to hot-swap all shards atomically.
    pub fn handle(&self) -> &SnapshotHandle {
        &self.handle
    }

    /// Publishes a new snapshot to every shard at once, returning its
    /// version. The tables are shared before they reach the handle, so
    /// the per-shard slices built at first query alias one copy.
    pub fn publish(&self, snapshot: EmbeddingSnapshot) -> u64 {
        self.handle.publish(snapshot.to_shared())
    }

    /// The shards' scoring cores, plan order (read-only introspection:
    /// each one's `cache_stats()`).
    pub fn shards(&self) -> &[Core] {
        &self.shards
    }

    /// A point-in-time copy of the per-shard/merge latency attribution:
    /// stages `shard0..shardN-1` record each shard's scatter service
    /// time per query, stage `merge` the gather-merge.
    pub fn latency_breakdown(&self) -> LatencyBreakdown {
        lock_recover(&self.timing).clone()
    }

    /// Caught scatter panics per shard, plan order — every failed
    /// attempt counts, including ones a retry then healed.
    pub fn shard_failures(&self) -> Vec<u64> {
        self.shard_failures
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Queries served with at least one shard missing (only possible
    /// under [`ShardedConfig::allow_partial`]).
    pub fn degraded_served(&self) -> u64 {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Users in the served universe (fixed across publishes).
    pub fn n_users(&self) -> usize {
        self.handle.load().snapshot().n_users()
    }

    /// Top-`k` unseen items for `user` across the whole catalogue, best
    /// first — bit-identical to a single-engine run at any shard count: a
    /// batch of one through [`ShardedEngine::try_recommend_batch`]. Every
    /// shard contribution is pinned to the reported version, even across
    /// a concurrent publish.
    ///
    /// A bad user id comes back as [`ServeError::InvalidRequest`], and
    /// shards still missing after [`ShardedConfig::scatter_retries`]
    /// either fail the query with [`ServeError::ShardFailed`] (strict
    /// policy, the default) or are listed on the returned
    /// [`DegradedResponse`] while the surviving shards' merge is served
    /// ([`ShardedConfig::allow_partial`]). A query where every shard
    /// failed is an error under either policy.
    pub fn try_recommend(&self, user: u32, k: usize) -> Result<DegradedResponse, ServeError> {
        let mut batch = self.try_recommend_batch(&[user], k)?;
        Ok(DegradedResponse {
            version: batch.version,
            items: batch.results.swap_remove(0),
            missing_shards: batch.missing_shards,
        })
    }

    /// Top-`k` per user, all pinned to one snapshot version: each shard
    /// answers the whole (deduplicated) block through its batched path,
    /// then per-user gathers merge under the global order. Results are
    /// in input order; duplicates share one `Arc`; every per-user result
    /// is bit-identical to a single unsharded engine's.
    ///
    /// Same policy as [`ShardedEngine::try_recommend`]: the whole batch
    /// is validated up front, a shard fails (or survives) for the whole
    /// scattered block at once, and the merged per-user rankings come
    /// back with one shared `missing_shards` list.
    pub fn try_recommend_batch(
        &self,
        users: &[u32],
        k: usize,
    ) -> Result<DegradedBatch, ServeError> {
        let cur = self.handle.load();
        check_users(users, cur.snapshot().n_users())?;
        if users.is_empty() {
            return Ok(DegradedBatch {
                version: cur.version(),
                results: Vec::new(),
                missing_shards: Vec::new(),
            });
        }
        let set = self
            .sets
            .get_or_build(cur.version(), || self.build_set(&cur));
        let (deal_gen, deal) = self.deal.load();
        // Scatter only distinct users; duplicate slots share the merge.
        let mut first_of: HashMap<u32, usize> = HashMap::with_capacity(users.len());
        let mut distinct: Vec<u32> = Vec::new();
        for &user in users {
            first_of.entry(user).or_insert_with(|| {
                distinct.push(user);
                distinct.len() - 1
            });
        }
        let (per_shard, shard_times) = self.scatter(&set, |core, slice| {
            core.serve(slice, deal_gen, deal.as_deref(), &distinct, k, None)
        });
        let missing = self.check_missing(&per_shard)?;
        let merge_start = Instant::now();
        let merged: Vec<Arc<Vec<ScoredItem>>> = (0..distinct.len())
            .map(|i| {
                let mut topk = TopK::new(k);
                self.offer_locals(
                    &mut topk,
                    per_shard
                        .iter()
                        .map(|rows| rows.as_ref().map(|r| r[i].as_slice())),
                );
                Arc::new(topk.into_sorted())
            })
            .collect();
        let out = users
            .iter()
            .map(|user| Arc::clone(&merged[first_of[user]]))
            .collect();
        self.record_query(&shard_times, merge_start.elapsed());
        Ok(DegradedBatch {
            version: cur.version(),
            results: out,
            missing_shards: missing,
        })
    }

    /// Applies the degraded-gather policy to one scatter's results:
    /// returns the (possibly empty) missing-shard list when the query
    /// may be served, or the error that refuses it. Serving a degraded
    /// query bumps the counter here so every serve site agrees.
    fn check_missing<T>(&self, locals: &[Option<T>]) -> Result<Vec<usize>, ServeError> {
        let missing: Vec<usize> = locals
            .iter()
            .enumerate()
            .filter_map(|(s, l)| l.is_none().then_some(s))
            .collect();
        if missing.is_empty() {
            return Ok(missing);
        }
        if !self.allow_partial || missing.len() == self.shards.len() {
            return Err(ServeError::ShardFailed { shards: missing });
        }
        self.degraded.fetch_add(1, Ordering::Relaxed);
        Ok(missing)
    }

    /// The served per-shard ranges for a catalogue of `n_items`: the
    /// construction-time plan, with the grow-only tail
    /// `[plan.n_items(), n_items)` appended to the last shard. Range
    /// *starts* never shift, so global-id translation, the cores' filter
    /// offsets, and earlier versions' shard sets all stay valid as the
    /// catalogue grows.
    fn effective_ranges(&self, n_items: usize) -> Vec<(usize, usize)> {
        assert!(
            n_items >= self.plan.n_items(),
            "served catalogue shrank below the shard plan ({} -> {n_items})",
            self.plan.n_items()
        );
        let mut ranges = self.plan.ranges().to_vec();
        let grown = n_items - self.plan.n_items();
        if grown > 0 {
            let last = ranges.len() - 1;
            ranges[last].1 += grown;
        }
        ranges
    }

    /// The per-shard slice set of the pinned snapshot `cur`, built on a
    /// version's first query. Shares `cur`'s tables once (O(1) if the
    /// publisher already shared) and slices them zero-copy. Grow-only
    /// publishes extend the last shard's range; a delta publish is
    /// re-stamped per shard with the change set translated to local ids,
    /// so shard cores keep the incremental IVF path.
    fn build_set(&self, cur: &VersionedSnapshot) -> ShardSet {
        let shared = cur.snapshot().to_shared();
        let ranges = self.effective_ranges(cur.snapshot().n_items());
        let prev_ranges = cur
            .delta()
            .map(|stamp| self.effective_ranges(cur.snapshot().n_items() - stamp.n_appended()));
        ranges
            .iter()
            .enumerate()
            .map(|(s, &(start, len))| {
                let slice = shared.slice_items(start, len);
                match (cur.delta(), &prev_ranges) {
                    (Some(stamp), Some(prev)) => {
                        let (_, prev_len) = prev[s];
                        let local_changed: Vec<u32> = stamp
                            .changed_items()
                            .iter()
                            .filter(|&&g| (start..start + prev_len).contains(&(g as usize)))
                            .map(|&g| g - start as u32)
                            .collect();
                        Arc::new(VersionedSnapshot::with_delta(
                            cur.version(),
                            slice,
                            DeltaStamp::new(stamp.prev_version(), local_changed, len - prev_len),
                        ))
                    }
                    _ => Arc::new(VersionedSnapshot::new(cur.version(), slice)),
                }
            })
            .collect()
    }

    /// Runs `f` once per shard against that shard's slice of `set`, in
    /// plan order on the caller's thread, returning per-shard results and
    /// service times.
    ///
    /// Each per-shard call is supervised: a panic (real or injected via
    /// the fault plan's shard site) is caught, counted against that
    /// shard, and retried up to [`ShardedConfig::scatter_retries`]
    /// times; a shard still failing after its retries yields `None` in
    /// its slot. The duration covers all attempts — a flapping shard's
    /// retries show up in its own latency stage, where the attribution
    /// finds them.
    fn scatter<T>(
        &self,
        set: &ShardSet,
        f: impl Fn(&Core, &VersionedSnapshot) -> T,
    ) -> (Vec<Option<T>>, Vec<Duration>) {
        let run = |s: usize| {
            let start = Instant::now();
            let mut out = None;
            for _attempt in 0..=self.retries {
                let result = catch_unwind(AssertUnwindSafe(|| {
                    if let Some(plan) = &self.faults {
                        plan.at_shard(s);
                    }
                    f(&self.shards[s], &set[s])
                }));
                match result {
                    Ok(v) => {
                        out = Some(v);
                        break;
                    }
                    Err(_) => {
                        self.shard_failures[s].fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            (out, start.elapsed())
        };
        (0..self.shards.len()).map(run).unzip()
    }

    /// Offers every gathered local result to `topk`, translating each
    /// shard's local item ids back to global ids (`global = shard range
    /// start + local`). The heap's strict total order makes the offer
    /// order irrelevant — this *is* the merge. Missing shards (`None`,
    /// failed after retries under the degraded policy) contribute
    /// nothing.
    fn offer_locals<'a>(
        &self,
        topk: &mut TopK,
        locals: impl Iterator<Item = Option<&'a [ScoredItem]>>,
    ) {
        for ((start, _), local) in self.plan.ranges().iter().zip(locals) {
            let Some(local) = local else { continue };
            let offset = *start as u32;
            for entry in local {
                topk.push(offset + entry.item, entry.score);
            }
        }
    }

    /// Records one query's per-shard and merge durations. Only *served*
    /// queries get here (complete or degraded) — refused queries never
    /// enter the stage counts and totals.
    fn record_query(&self, shard_times: &[Duration], merge: Duration) {
        let mut timing = lock_recover(&self.timing);
        for (s, &d) in shard_times.iter().enumerate() {
            timing.record(s, d);
        }
        timing.record(shard_times.len(), merge);
    }
}

impl ServeEngine for ShardedEngine {
    fn n_users(&self) -> usize {
        ShardedEngine::n_users(self)
    }

    // Every core is built from one `ShardedConfig::engine`.
    fn user_block(&self) -> usize {
        self.shards[0].cfg.user_block
    }

    fn has_cache(&self) -> bool {
        self.shards[0].cache.is_some()
    }

    fn try_recommend_many(&self, users: &[u32], k: usize) -> VersionedBatchResult {
        // Degraded detail (which shards were missing) is available on the
        // inherent API; through the service trait a permitted partial
        // batch serves like a complete one.
        ShardedEngine::try_recommend_batch(self, users, k).map(|b| (b.version, b.results))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{QueryEngine, Retrieval};
    use gb_models::SnapshotDelta;
    use gb_tensor::Matrix;

    fn snapshot(n_users: usize, n_items: usize, d: usize) -> EmbeddingSnapshot {
        EmbeddingSnapshot::new(
            0.4,
            Matrix::from_fn(n_users, d, |r, c| ((r * 7 + c * 3) as f32 * 0.17).sin()),
            Matrix::from_fn(n_items, d, |r, c| ((r * 5 + c) as f32 * 0.31).cos()),
            Matrix::from_fn(n_users, d, |r, c| ((r + c * 11) as f32 * 0.13).sin()),
            Matrix::from_fn(n_items, d, |r, c| ((r * 3 + c * 2) as f32 * 0.23).cos()),
        )
    }

    /// One user's merged reply and the version it was computed from.
    fn versioned(sharded: &ShardedEngine, user: u32, k: usize) -> (u64, Arc<Vec<ScoredItem>>) {
        let r = sharded.try_recommend(user, k).unwrap();
        (r.version, r.items)
    }

    fn pairs(items: &[ScoredItem]) -> Vec<(u32, u32)> {
        items.iter().map(|e| (e.item, e.score.to_bits())).collect()
    }

    #[test]
    fn sharded_matches_single_engine_bitwise() {
        let snap = snapshot(5, 157, 8);
        let single = QueryEngine::new(snap.clone());
        for n_shards in [1usize, 2, 3, 5, 8] {
            let sharded = ShardedEngine::new(snap.clone(), n_shards);
            for user in 0..5u32 {
                assert_eq!(
                    pairs(&sharded.try_recommend(user, 10).unwrap().items),
                    pairs(&single.try_recommend(user, 10).unwrap()),
                    "user {user} at {n_shards} shards"
                );
            }
        }
    }

    #[test]
    fn sharded_filter_slices_match_global_filter() {
        let snap = snapshot(4, 130, 6);
        let mut seen = BitMatrix::zeros(4, 130);
        for item in (0..130).step_by(3) {
            seen.set(1, item);
        }
        seen.set(2, 63);
        seen.set(2, 64);
        let single = QueryEngine::new(snap.clone()).with_seen_filter(seen.clone());
        let sharded = ShardedEngine::new(snap, 3).with_seen_filter(seen);
        for user in 0..4u32 {
            assert_eq!(
                pairs(&sharded.try_recommend(user, 130).unwrap().items),
                pairs(&single.try_recommend(user, 130).unwrap()),
                "user {user}"
            );
        }
    }

    #[test]
    fn publish_swaps_every_shard_to_the_new_version() {
        let old = snapshot(4, 90, 8);
        let new = snapshot(4, 90, 4);
        let single = QueryEngine::new(new.clone());
        let sharded = ShardedEngine::new(old, 4);
        let (v1, _) = versioned(&sharded, 0, 5);
        assert_eq!(v1, 1);
        assert_eq!(sharded.publish(new), 2);
        let (v2, got) = versioned(&sharded, 0, 90);
        assert_eq!(v2, 2);
        assert_eq!(pairs(&got), pairs(&single.try_recommend(0, 90).unwrap()));
    }

    #[test]
    fn recommend_many_merges_like_solo_queries() {
        let snap = snapshot(6, 101, 8);
        let single = QueryEngine::new(snap.clone());
        let sharded = ShardedEngine::new(snap, 4);
        let users = [3u32, 0, 3, 5, 1, 3];
        let many = sharded.try_recommend_batch(&users, 7).unwrap().results;
        assert_eq!(many.len(), users.len());
        for (slot, &user) in users.iter().enumerate() {
            assert_eq!(
                pairs(&many[slot]),
                pairs(&single.try_recommend(user, 7).unwrap())
            );
        }
        // Duplicates share one Arc.
        assert!(Arc::ptr_eq(&many[0], &many[2]));
        assert!(Arc::ptr_eq(&many[2], &many[5]));
    }

    #[test]
    fn latency_breakdown_attributes_per_shard_and_merge() {
        let sharded = ShardedEngine::new(snapshot(3, 60, 4), 3);
        sharded.try_recommend(0, 5).unwrap();
        sharded.try_recommend_batch(&[1, 2], 5).unwrap();
        let breakdown = sharded.latency_breakdown();
        assert_eq!(breakdown.n_stages(), 4, "3 shards + merge");
        assert_eq!(breakdown.label(3), "merge");
        for stage in 0..4 {
            assert_eq!(
                breakdown.stage(stage).n_samples(),
                2,
                "each query records every stage"
            );
        }
    }

    #[test]
    fn more_shards_than_items_serves_empty_tail_shards() {
        let snap = snapshot(3, 5, 4);
        let single = QueryEngine::new(snap.clone());
        let sharded = ShardedEngine::new(snap, 8);
        assert_eq!(sharded.shards().len(), 8);
        assert_eq!(
            pairs(&sharded.try_recommend(1, 5).unwrap().items),
            pairs(&single.try_recommend(1, 5).unwrap())
        );
    }

    #[test]
    fn out_of_range_user_is_rejected_with_a_typed_error() {
        let sharded = ShardedEngine::new(snapshot(2, 10, 4), 2);
        let results = [
            sharded.try_recommend(2, 1).map(|r| r.version),
            sharded.try_recommend_batch(&[0, 2], 1).map(|b| b.version),
        ];
        for result in results {
            match result {
                Err(ServeError::InvalidRequest { reason }) => {
                    assert_eq!(reason, "user 2 out of range (2 users)");
                }
                other => panic!("expected InvalidRequest, got {other:?}"),
            }
        }
        assert_eq!(
            sharded.latency_breakdown().stage(0).n_samples(),
            0,
            "rejected before any scatter"
        );
    }

    fn deal_filter(n_items: usize) -> BitMatrix {
        let mut f = BitMatrix::zeros(1, n_items);
        for item in (0..n_items).step_by(4) {
            f.set(0, item);
        }
        f
    }

    #[test]
    fn sharded_deal_filter_matches_single_engine_bitwise() {
        let snap = snapshot(4, 130, 6);
        let mut seen = BitMatrix::zeros(4, 130);
        for item in (0..130).step_by(3) {
            seen.set(1, item);
        }
        let single = QueryEngine::new(snap.clone()).with_seen_filter(seen.clone());
        single.set_deal_filter(deal_filter(130));
        for n_shards in [1usize, 3, 5] {
            let sharded = ShardedEngine::new(snap.clone(), n_shards).with_seen_filter(seen.clone());
            sharded.set_deal_filter(deal_filter(130));
            for user in 0..4u32 {
                assert_eq!(
                    pairs(&sharded.try_recommend(user, 130).unwrap().items),
                    pairs(&single.try_recommend(user, 130).unwrap()),
                    "user {user} at {n_shards} shards"
                );
            }
        }
    }

    #[test]
    fn clearing_the_deal_filter_restores_the_full_candidate_set() {
        let sharded = ShardedEngine::new(snapshot(3, 64, 4), 4);
        sharded.set_deal_filter(deal_filter(64));
        assert_eq!(sharded.try_recommend(0, 64).unwrap().items.len(), 48);
        sharded.clear_deal_filter();
        assert_eq!(sharded.try_recommend(0, 64).unwrap().items.len(), 64);
    }

    #[test]
    fn grown_publish_extends_the_last_shard() {
        // The plan was cut for 90 items; a grow-only publish appends 17.
        // The tail lands on the last shard, and the merged ranking stays
        // bit-identical to a single engine over the grown catalogue.
        let old = snapshot(4, 90, 6);
        let new = snapshot(4, 107, 6);
        let sharded = ShardedEngine::new(old, 3);
        sharded.try_recommend(0, 5).unwrap(); // build the v1 slice set first
        assert_eq!(sharded.publish(new.clone()), 2);
        let single = QueryEngine::new(new);
        for user in 0..4u32 {
            let (version, got) = versioned(&sharded, user, 107);
            assert_eq!(version, 2);
            assert_eq!(
                pairs(&got),
                pairs(&single.try_recommend(user, 107).unwrap()),
                "user {user}"
            );
        }
    }

    #[test]
    fn a_seen_filter_installed_after_a_grown_publish_matches_a_single_engine() {
        // The last shard serves the grown tail, so it probes filter bits
        // past the range its plan was cut for.
        let mut seen = BitMatrix::zeros(4, 107);
        for item in (0..107).step_by(3) {
            seen.set(2, item);
        }
        let single = QueryEngine::new(snapshot(4, 90, 6));
        single.handle().publish(snapshot(4, 107, 6));
        let single = single.with_seen_filter(seen.clone());
        let sharded = ShardedEngine::new(snapshot(4, 90, 6), 3);
        sharded.publish(snapshot(4, 107, 6));
        let sharded = sharded.with_seen_filter(seen);
        for user in 0..4u32 {
            assert_eq!(
                pairs(&sharded.try_recommend(user, 107).unwrap().items),
                pairs(&single.try_recommend(user, 107).unwrap()),
                "user {user}"
            );
        }
    }

    #[test]
    fn delta_publish_is_restamped_per_shard() {
        let snap = snapshot(3, 80, 4);
        let sharded = ShardedEngine::new(snap.clone(), 3);
        sharded.try_recommend(0, 3).unwrap();
        let delta = SnapshotDelta::new()
            .set_item(5, vec![0.5; 4], vec![-0.5; 4])
            .set_item(60, vec![0.1; 4], vec![0.2; 4])
            .append_item(vec![0.9; 4], vec![0.3; 4]);
        assert_eq!(sharded.handle().publish_delta(&delta), 2);
        let cur = sharded.handle().load();
        let set = sharded.build_set(&cur);
        // 80 items over 3 shards: ranges (0,27) (27,27) (54,26); the
        // appended item extends the last to (54,27).
        let stamps: Vec<_> = set
            .iter()
            .map(|s| s.delta().expect("every slice re-stamped"))
            .collect();
        assert_eq!(stamps[0].changed_items(), &[5]);
        assert_eq!(stamps[0].n_appended(), 0);
        assert!(stamps[1].changed_items().is_empty());
        assert_eq!(stamps[2].changed_items(), &[60 - 54]);
        assert_eq!(stamps[2].n_appended(), 1);
        assert_eq!(set[2].snapshot().n_items(), 27);
        // And the served merge equals a single engine over the new tables.
        let single = QueryEngine::new(cur.snapshot().clone());
        for user in 0..3u32 {
            assert_eq!(
                pairs(&sharded.try_recommend(user, 81).unwrap().items),
                pairs(&single.try_recommend(user, 81).unwrap()),
                "user {user}"
            );
        }
    }

    /// A table's backing memory, counting its own drop.
    struct Counted(Vec<f32>, Arc<AtomicU64>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.1.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// A `rows × 4` table over a [`Counted`] keep-alive: `drops` moves
    /// exactly when the last view of the table is gone.
    fn counted_table(rows: usize, drops: &Arc<AtomicU64>) -> Matrix {
        let data = (0..rows * 4).map(|i| (i as f32 * 0.13).sin()).collect();
        let keep = Arc::new(Counted(data, Arc::clone(drops)));
        let ptr = keep.0.as_ptr();
        // SAFETY: `keep` owns `rows * 4` initialised, aligned f32s that
        // nothing writes to after this point, and the matrix holds `keep`
        // (and so the buffer) alive for as long as any view of it exists.
        unsafe { Matrix::from_raw_shared(rows, 4, ptr, keep) }
    }

    #[test]
    fn the_router_frees_its_first_version() {
        let ivf = EngineConfig {
            retrieval: Retrieval::Ivf {
                n_clusters: 4,
                n_probe: 4,
            },
            ..Default::default()
        };
        // `(retrieval, shards, first-version tables freed)`; `None`
        // shards is a `QueryEngine`.
        let mut freed = Vec::new();
        for cfg in [EngineConfig::default(), ivf] {
            for n_shards in [None, Some(1), Some(3)] {
                let drops = Arc::new(AtomicU64::new(0));
                let [a, b, c, d] = [5, 60, 5, 60].map(|rows| counted_table(rows, &drops));
                let handle = SnapshotHandle::new(EmbeddingSnapshot::new(0.4, a, b, c, d));
                let engine: Box<dyn ServeEngine> = match n_shards {
                    None => Box::new(QueryEngine::with_handle(handle.clone(), cfg.clone())),
                    Some(n_shards) => Box::new(ShardedEngine::with_handle(
                        handle.clone(),
                        ShardedConfig {
                            n_shards,
                            engine: cfg.clone(),
                            ..Default::default()
                        },
                    )),
                };
                for version in 1..=4 {
                    if version > 1 {
                        handle.publish(snapshot(5, 60, 4).to_shared());
                    }
                    assert_eq!(engine.try_recommend_many(&[0, 4], 5).unwrap().0, version);
                }
                let n = drops.load(Ordering::SeqCst);
                freed.push((cfg.retrieval, n_shards, n));
            }
        }
        assert!(
            freed.iter().all(|f| f.2 == 4),
            "every tier frees all 4 first-version tables while alive: {freed:?}"
        );
    }

    #[test]
    fn degenerate_requests_answer_empty_lists_on_both_tiers() {
        let snap = snapshot(4, 50, 4);
        let mut every_item = BitMatrix::zeros(1, 50);
        (0..50).for_each(|item| every_item.set(0, item));
        let full_probe = Retrieval::Ivf {
            n_clusters: 5,
            n_probe: 5,
        };
        for retrieval in [Retrieval::Exact, full_probe] {
            for cache_capacity in [0, 8] {
                let cfg = EngineConfig {
                    retrieval,
                    cache_capacity,
                    ..Default::default()
                };
                let single = QueryEngine::with_config(snap.clone(), cfg.clone());
                let router = ShardedEngine::with_config(
                    snap.clone(),
                    ShardedConfig {
                        n_shards: 3,
                        engine: cfg,
                        ..Default::default()
                    },
                );
                // `k = 0` over the open catalogue, then `k = 10` with every
                // item blocked; each asked twice, so the second is a repeat.
                for k in [0, 10] {
                    if k > 0 {
                        single.set_deal_filter(every_item.clone());
                        router.set_deal_filter(every_item.clone());
                    }
                    for _ in 0..2 {
                        let (version, lists) = single.try_recommend_batch(&[0, 3, 0], k).unwrap();
                        let batch = router.try_recommend_batch(&[0, 3, 0], k).unwrap();
                        assert_eq!((version, batch.version), (1, 1));
                        assert!(lists.iter().chain(&batch.results).all(|l| l.is_empty()));
                        assert!(batch.missing_shards.is_empty());
                    }
                }
                assert_eq!(router.shard_failures(), vec![0; 3]);
                assert_eq!(router.degraded_served(), 0);
                // Per phase: two first touches miss; the duplicate and the
                // three repeats hit.
                let want = if cache_capacity > 0 { (8, 4) } else { (0, 0) };
                assert_eq!(single.cache_stats(), want, "{retrieval:?}");
            }
        }
    }

    /// `serve_sharded_ivf`'s catalogue at its smoke size: α = 0.6,
    /// 16 + 16 columns, 64 equally large categories each a Xavier centre
    /// plus 0.08 of Xavier noise (`clustered`), or plain Xavier items.
    fn bench_shaped(clustered: bool) -> EmbeddingSnapshot {
        use rand::SeedableRng;
        let (n_users, n_items, d, n_cats) = (64, 16_384, 16, 64);
        let mut rng = rand::rngs::StdRng::seed_from_u64(47);
        let items = |rng: &mut rand::rngs::StdRng| {
            let noise = gb_tensor::init::xavier_uniform(n_items, d, rng);
            if !clustered {
                return noise;
            }
            let centres = gb_tensor::init::xavier_uniform(n_cats, d, rng);
            Matrix::from_fn(n_items, d, |r, c| {
                centres.get(r % n_cats, c) + 0.08 * noise.get(r, c)
            })
        };
        let item_own = items(&mut rng);
        let item_social = items(&mut rng);
        EmbeddingSnapshot::new(
            0.6,
            gb_tensor::init::xavier_uniform(n_users, d, &mut rng),
            item_own,
            gb_tensor::init::xavier_uniform(n_users, d, &mut rng),
            item_social,
        )
    }

    /// IVF cells scored by `users`' misses through a 4-shard router with
    /// 64 cells and 4 probed per shard, `k = 10`, after one warm-up query
    /// builds the indexes (`try_recommend` scatters on this thread).
    fn cells_scored_per_miss(snap: EmbeddingSnapshot, users: std::ops::Range<u32>) -> usize {
        let router = ShardedEngine::with_config(
            snap,
            ShardedConfig {
                n_shards: 4,
                engine: EngineConfig {
                    retrieval: Retrieval::Ivf {
                        n_clusters: 64,
                        n_probe: 4,
                    },
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        router.try_recommend(0, 10).unwrap();
        let count = || crate::engine::CELLS_SCORED.with(std::cell::Cell::get);
        let before = count();
        for user in users {
            router.try_recommend(user, 10).unwrap();
        }
        count() - before
    }

    #[test]
    fn a_clustered_miss_scores_about_one_cell_per_shard() {
        // 64 misses, 16 routed cells each (4 per shard): the bound leaves
        // the cell that holds a shard's top 10, plus 17 more cells over
        // all 256 shard scans — 4.27 cells a miss instead of 16.
        assert_eq!(cells_scored_per_miss(bench_shaped(true), 0..64), 273);
    }

    #[test]
    fn a_xavier_miss_never_scores_more_cells_than_it_routes() {
        let scored = cells_scored_per_miss(bench_shaped(false), 0..64);
        assert_eq!(scored, 64 * 16, "unclustered cells are too wide to skip");
    }
}
