//! The top-K query engine over a hot-swappable snapshot.
//!
//! One query loads the currently-published snapshot from a
//! [`SnapshotHandle`] (an `Arc` clone — the tables can never change
//! underneath a running query), then walks the catalogue in cache-sized
//! blocks: the blocked kernel scores `BLOCK_SIZE` items at a time (both
//! item tables are streamed once, row-major), the per-user seen-bitset
//! drops already interacted items with one word-probe each, and
//! survivors feed a bounded min-heap. Memory per query is
//! `O(BLOCK_SIZE + k)` regardless of catalogue size — no full score
//! vector is ever materialized.
//!
//! ## Retrieval modes
//!
//! The exhaustive walk is [`Retrieval::Exact`]. Catalogues that outgrow
//! it can serve with [`Retrieval::Ivf`]: an [`IvfIndex`] clusters the
//! items offline and a query scores at most its `n_probe` best cells,
//! skipping those a per-cell score bound proves cannot reach the top k —
//! sublinear work per query, with `n_probe = n_clusters` provably
//! bit-identical to exact serving. The index is tagged with the snapshot
//! version it was built from and rebuilt when a query observes a newer
//! publish, so approximate results never blend across a publish (the
//! same guarantee the response cache gets from version-keyed entries).
//!
//! ## Cache invalidation rule
//!
//! Responses are cached under the key `(snapshot version, deal-filter
//! generation, user, k)`. A publish — or a deal-filter swap — therefore
//! invalidates every older response *by key*: a query against version
//! `v+1` (or filter generation `g+1`) can never observe a response
//! computed under `v` (or `g`), with no flush or epoch bookkeeping.
//! Entries for retired versions and generations age out of the
//! fixed-capacity LRU on their own.

use crate::cache::LruCache;
use crate::error::{check_users, lock_recover, read_recover, write_recover, ServeError};
use crate::faults::FaultPlan;
use crate::ivf::IvfIndex;
use crate::topk::{ScoredItem, TopK};
use gb_graph::BitMatrix;
use gb_models::{EmbeddingSnapshot, SnapshotHandle, VersionedSnapshot};
use gb_tensor::kernels::DOT_LANES;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::sync::{Mutex, RwLock};

/// Seed of the engine's IVF k-means builds. A fixed constant: two engines
/// over the same published snapshot build bit-identical indexes, so
/// approximate rankings are reproducible across processes and restarts.
const IVF_SEED: u64 = 0x1BF5_2026;

/// How the engine generates candidates for a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Retrieval {
    /// Exhaustive: every query scores the full catalogue in blocks. Work
    /// per query is linear in the catalogue size; results are exact by
    /// construction.
    Exact,
    /// Approximate inverted-file retrieval: items are clustered into
    /// `n_clusters` cells over the concatenated embedding space
    /// ([`IvfIndex`]); a query scores only members of its `n_probe`
    /// best cells. Work per query is at most `n_probe / n_clusters` of a
    /// catalogue pass plus the `n_clusters` routing dots — sublinear in
    /// the catalogue for fixed cell occupancy.
    ///
    /// `n_probe` caps the cells scored. Within that cap a per-cell score
    /// bound picks the cells: once the heap is full, a routed cell whose
    /// bound is below the k-th score is not scored, and the reply is
    /// bit-identical to scoring all `n_probe` cells (see the `ivf`
    /// module's "Exactness envelope").
    ///
    /// `n_probe = n_clusters` probes every cell and is **bit-identical**
    /// to [`Retrieval::Exact`] (property-tested): the candidate set
    /// becomes the full ascending catalogue and survivor scores come
    /// from the same lane-blocked dot as the exhaustive pass. Both knobs
    /// are clamped to at least 1.
    Ivf {
        /// Cells the catalogue is partitioned into (clamped to the
        /// catalogue size at build time).
        n_clusters: usize,
        /// Cells routed per query: the most a query scores.
        n_probe: usize,
    },
}

/// Items scored per kernel call. 512 rows of a 64-wide f32 table is
/// 128 KiB — L2-resident on anything modern. A multiple of
/// `gb_tensor::kernels::DOT_LANES`, the block-size granularity the kernel
/// layer publishes (a multiple of its item-tile width), so non-tail
/// blocks decompose into full register tiles with no scalar per-block
/// item tail. The SIMD lanes themselves run over the embedding
/// dimension, not the item axis; the block size never changes scores,
/// only how the catalogue walk is chunked.
const BLOCK_SIZE: usize = 512;
const _: () = assert!(BLOCK_SIZE.is_multiple_of(DOT_LANES));

/// Tuning knobs for [`QueryEngine`].
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Response cache capacity in `(version, deal generation, user, k)`
    /// entries; 0 disables caching.
    pub cache_capacity: usize,
    /// Users scored per catalogue pass
    /// ([`QueryEngine::try_recommend_batch`], and the service-side query
    /// coalescer). The catalogue pass is memory-bound on the item tables;
    /// streaming them once per user *block* amortizes that traffic across
    /// up to `user_block` requests. This is purely a scheduling knob:
    /// per-user scores (and therefore rankings) are bit-identical for
    /// every `user_block`. Clamped to at least 1.
    pub user_block: usize,
    /// Candidate generation mode: exhaustive catalogue scans
    /// ([`Retrieval::Exact`], the default) or approximate inverted-file
    /// retrieval ([`Retrieval::Ivf`]). The IVF index is built lazily from
    /// the served snapshot and rebuilt whenever a new version is
    /// published, so approximate results never blend across a publish.
    pub retrieval: Retrieval,
    /// Whether IVF builds pack per-cell item tables (`true`, the
    /// default: one extra copy of the item tables bought for sequential
    /// cell streaming) or score cells in place against the snapshot
    /// tables (`false`: zero extra item-table memory — the right call
    /// when many shards share one box). Purely a layout knob:
    /// rankings are bit-identical either way. Ignored in exact mode.
    pub ivf_packed: bool,
    /// Whether a delta publish ([`SnapshotHandle::publish_delta`])
    /// updates the IVF index incrementally (`true`: keep the previous
    /// version's centroids, re-route only the changed and appended items
    /// by nearest centroid — [`IvfIndex::update`]) instead of re-running
    /// the full k-means build (`false`, the default). Requires the
    /// previous version's index to still be cached; otherwise, and for
    /// full publishes, the full rebuild runs as before. Version-tagging
    /// semantics are unchanged either way: a response never blends an
    /// index from one publish with tables from another.
    pub ivf_incremental: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            cache_capacity: 0,
            user_block: 8,
            retrieval: Retrieval::Exact,
            ivf_packed: true,
            ivf_incremental: false,
        }
    }
}

/// Cached responses, keyed by
/// `(snapshot version, deal-filter generation, user, k)`.
type ResponseCache = LruCache<(u64, u64, u32, usize), Arc<Vec<ScoredItem>>>;

/// What a fallible batched scoring call resolves to: the snapshot
/// version the whole batch was pinned to plus one shared top-`k` list
/// per requested user — or the typed error that refused the batch.
pub type VersionedBatchResult = Result<(u64, Vec<Arc<Vec<ScoredItem>>>), ServeError>;

/// A deal-state filter slot: the installed catalogue-wide row (every
/// shard of a [`crate::router::ShardedEngine`] probes it at its own item
/// offset) plus how many times it has been swapped. Every swap bumps the
/// generation, and a read takes both under one lock, so a query's cache
/// key and probe words always agree — a filter swapped in mid-query can
/// at worst make an in-flight insert land under the retired generation's
/// (dead) key, never serve a response computed under one filter from a
/// key claiming another.
pub(crate) struct DealSlot(RwLock<(u64, Option<Arc<BitMatrix>>)>);

impl DealSlot {
    pub(crate) fn new() -> Self {
        Self(RwLock::new((0, None)))
    }

    /// Installs `filter` (`None` clears it) under a new generation.
    pub(crate) fn swap(&self, filter: Option<BitMatrix>) {
        let filter = filter.map(Arc::new);
        let mut slot = write_recover(&self.0);
        slot.0 += 1;
        slot.1 = filter;
    }

    /// Swaps so far — the cache-key component that retires responses
    /// computed under an earlier filter.
    pub(crate) fn generation(&self) -> u64 {
        read_recover(&self.0).0
    }

    /// One consistent `(generation, filter)` read for a whole query.
    pub(crate) fn load(&self) -> (u64, Option<Arc<BitMatrix>>) {
        let slot = read_recover(&self.0);
        (slot.0, slot.1.clone())
    }
}

/// What an engine derives from one snapshot version (an IVF index, a
/// router's per-shard slice set), built at most once per version and kept
/// for the two newest. Two, not one: around a publish, in-flight queries
/// still pinned to the old version coexist with queries on the new one,
/// and a single slot would make them evict each other's entry — a full
/// rebuild per eviction.
pub(crate) struct VersionCache<T> {
    /// `(version, entry)`, newest last.
    entries: RwLock<Vec<(u64, Arc<T>)>>,
    /// Serializes *builds* (not lookups): after a publish every worker
    /// misses the new version at once, and without this gate each would
    /// run its own identical build. Late arrivals block here, then hit
    /// on re-check.
    build: Mutex<()>,
}

impl<T> VersionCache<T> {
    pub(crate) fn new() -> Self {
        Self {
            entries: RwLock::new(Vec::new()),
            build: Mutex::new(()),
        }
    }

    /// The entry built for `version`, if it is still kept.
    pub(crate) fn get(&self, version: u64) -> Option<Arc<T>> {
        read_recover(&self.entries)
            .iter()
            .find(|(v, _)| *v == version)
            .map(|(_, entry)| Arc::clone(entry))
    }

    /// The newest version an entry is kept for.
    pub(crate) fn newest(&self) -> Option<u64> {
        read_recover(&self.entries).last().map(|&(v, _)| v)
    }

    /// The entry for `version`, running `build` on a miss. The build runs
    /// under the gate but *outside* the entries' write lock, so it never
    /// stalls queries already holding an entry for another version.
    pub(crate) fn get_or_build(&self, version: u64, build: impl FnOnce() -> T) -> Arc<T> {
        if let Some(hit) = self.get(version) {
            return hit;
        }
        let _building = lock_recover(&self.build);
        if let Some(hit) = self.get(version) {
            return hit; // a peer built it while we waited at the gate
        }
        let built = Arc::new(build());
        let mut entries = write_recover(&self.entries);
        entries.push((version, Arc::clone(&built)));
        entries.sort_by_key(|&(v, _)| v);
        if entries.len() > 2 {
            entries.remove(0);
        }
        built
    }
}

/// Checks a seen-item filter against the snapshot it is installed over.
///
/// # Panics
/// Panics unless the filter has exactly one row per user and one column
/// per item.
pub(crate) fn check_seen_filter(filter: &BitMatrix, snapshot: &EmbeddingSnapshot) {
    assert_eq!(
        filter.rows(),
        snapshot.n_users(),
        "filter user count mismatch"
    );
    assert_eq!(
        filter.cols(),
        snapshot.n_items(),
        "filter item count mismatch"
    );
}

pub(crate) use scoring::Core;

#[cfg(test)]
thread_local! {
    /// IVF cells [`Core::rank_ivf_cells`] has scored on this thread.
    pub(crate) static CELLS_SCORED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

mod scoring {
    use super::*;

    /// What one catalogue, or one shard's item range, owns for scoring:
    /// no handle and no deal slot, so it holds no snapshot between calls.
    /// `pub` in a private module: `ShardedEngine::shards` hands cores out
    /// for `cache_stats`, and nothing outside the crate can name them.
    pub struct Core {
        /// The global id of the core's item 0: its filter probes read bit
        /// `start + local id` of the catalogue-wide rows.
        pub(super) start: usize,
        /// Seen-item bitset over the whole catalogue, shared by every
        /// shard: bit `(u, n)` set ⇒ never recommend `n` to `u`.
        pub(super) seen: Option<Arc<BitMatrix>>,
        pub(crate) cache: Option<Mutex<ResponseCache>>,
        /// The tuning, knobs clamped as each one's docs say.
        pub(crate) cfg: EngineConfig,
        /// IVF indexes of the two newest versions served, each built
        /// lazily on the first IVF-mode query against its version.
        pub(super) ivf: VersionCache<IvfIndex>,
    }
}

impl Core {
    /// A core tuned by `cfg` for the items from global id `start` on,
    /// with no seen filter.
    pub(crate) fn new(cfg: &EngineConfig, start: usize) -> Self {
        let mut cfg = cfg.clone();
        cfg.user_block = cfg.user_block.max(1);
        if let Retrieval::Ivf {
            n_clusters,
            n_probe,
        } = &mut cfg.retrieval
        {
            *n_clusters = (*n_clusters).max(1);
            *n_probe = (*n_probe).max(1);
        }
        Self {
            start,
            seen: None,
            cache: (cfg.cache_capacity > 0).then(|| Mutex::new(LruCache::new(cfg.cache_capacity))),
            cfg,
            ivf: VersionCache::new(),
        }
    }

    /// Installs the catalogue-wide seen filter, unchecked (the caller
    /// checks it against the served catalogue) and discards cached
    /// responses, which could leak seen items.
    pub(crate) fn set_seen_filter(&mut self, filter: Arc<BitMatrix>) {
        self.seen = Some(filter);
        if let Some(cache) = &self.cache {
            // Flush entries, keep hit/miss counters and the slab
            // allocation — invalidation is not amnesia.
            lock_recover(cache).clear();
        }
    }

    /// `(hits, misses)` of the response cache (zeros when disabled).
    pub fn cache_stats(&self) -> (u64, u64) {
        match &self.cache {
            Some(c) => lock_recover(c).stats(),
            None => (0, 0),
        }
    }

    /// Top-`k` per user against the caller's pinned `(version, snapshot)`
    /// pair and `(generation, filter)` deal pair — both tiers' one scoring
    /// path (a router passes each shard its snapshot slice and the one
    /// deal row, probed at the core's `start`). The cache key
    /// carries `cur`'s version and `deal_gen`; the IVF index is built for
    /// `cur`'s version on a miss; `faults` is consulted at every uncached
    /// scoring dispatch. Callers validate `users` against `cur`.
    pub(crate) fn serve(
        &self,
        cur: &VersionedSnapshot,
        deal_gen: u64,
        deal: Option<&BitMatrix>,
        users: &[u32],
        k: usize,
        faults: Option<&FaultPlan>,
    ) -> Vec<Arc<Vec<ScoredItem>>> {
        let version = cur.version();
        let mut out: Vec<Option<Arc<Vec<ScoredItem>>>> = vec![None; users.len()];

        // Probe the cache once per *distinct* user, exactly as a
        // sequential caller would on its first query — duplicate slots
        // are resolved afterwards so they count as the hits they would
        // have been sequentially, not as extra misses. Each distinct
        // user's first slot is recorded up front, so duplicate detection
        // and the per-ranked-user fill below are O(1) per slot instead of
        // an O(users) rescan each (this path sits under IVF-batched wide
        // serving and must not go quadratic in the batch width).
        // lint:allow(no-hash-iteration): lookup-only map, never iterated — order cannot leak
        let mut first_slot: HashMap<u32, usize> = HashMap::with_capacity(users.len());
        let mut pending: Vec<(u32, usize)> = Vec::new();
        let mut duplicates: Vec<usize> = Vec::new();
        for (slot, &user) in users.iter().enumerate() {
            if first_slot.contains_key(&user) {
                duplicates.push(slot);
                continue;
            }
            first_slot.insert(user, slot);
            if let Some(cache) = &self.cache {
                if let Some(hit) = lock_recover(cache).get(&(version, deal_gen, user, k)) {
                    out[slot] = Some(Arc::clone(hit));
                    continue;
                }
            }
            pending.push((user, slot));
        }

        for block in pending.chunks(self.cfg.user_block) {
            if let Some(plan) = faults {
                plan.at_score();
            }
            let block_users: Vec<u32> = block.iter().map(|&(user, _)| user).collect();
            let ranked = self.rank_many(cur, deal, &block_users, k);
            for (&(user, slot), result) in block.iter().zip(ranked) {
                let result = Arc::new(result);
                if let Some(cache) = &self.cache {
                    lock_recover(cache).insert((version, deal_gen, user, k), Arc::clone(&result));
                }
                out[slot] = Some(result);
            }
        }

        // Duplicate slots: a sequential caller's repeat query is a cache
        // hit, so route it through the cache (recording the hit and the
        // LRU touch). If the entry was already evicted — tiny cache, wide
        // batch — reuse the first occurrence's result (bit-identical by
        // determinism; a sequential caller would recompute exactly it)
        // and reinsert, mirroring the sequential recompute-and-insert.
        for slot in duplicates {
            let user = users[slot];
            let first = first_slot[&user];
            // invariant: the first occurrence of every user was either a
            // cache hit or ranked in the pending loop above.
            let result = Arc::clone(out[first].as_ref().expect("first occurrence answered"));
            out[slot] = Some(match &self.cache {
                Some(cache) => {
                    let mut cache = lock_recover(cache);
                    match cache.get(&(version, deal_gen, user, k)) {
                        Some(hit) => Arc::clone(hit),
                        None => {
                            cache.insert((version, deal_gen, user, k), Arc::clone(&result));
                            result
                        }
                    }
                }
                None => result,
            });
        }

        // invariant: every slot is a hit, a ranked pending entry, or a
        // duplicate resolved above — no fourth kind of slot exists.
        out.into_iter()
            .map(|r| r.expect("every user answered"))
            .collect()
    }

    /// One IVF index for `cur`, by whichever path applies: when
    /// incremental maintenance is enabled and `cur` is a delta publish
    /// whose predecessor's index is still cached, the predecessor is
    /// updated in place of a rebuild — only the changed and appended
    /// items are re-routed to their nearest existing centroid
    /// ([`IvfIndex::update`]). Everything else (full publishes, a missing
    /// predecessor index, an empty predecessor catalogue, incremental
    /// off) runs the full seeded k-means build.
    fn build_ivf(&self, cur: &VersionedSnapshot, n_clusters: usize) -> IvfIndex {
        if self.cfg.ivf_incremental {
            if let Some(stamp) = cur.delta() {
                if let Some(prev) = self.ivf.get(stamp.prev_version()) {
                    if prev.n_clusters() > 0 {
                        return prev.update(
                            cur.snapshot(),
                            cur.version(),
                            stamp.changed_items(),
                            stamp.n_appended(),
                        );
                    }
                }
            }
        }
        IvfIndex::build(
            cur.snapshot(),
            cur.version(),
            n_clusters,
            IVF_SEED,
            self.cfg.ivf_packed,
        )
    }

    /// The uncached scoring dispatch for one block of users against one
    /// pinned `(version, snapshot)` pair, under one pinned deal filter.
    /// Exact mode shares one catalogue walk across the block; IVF mode
    /// ranks each user over its own probed candidate set (candidate sets
    /// are per-user, so there is no shared pass to amortize — the win is
    /// scoring far fewer items).
    fn rank_many(
        &self,
        cur: &VersionedSnapshot,
        deal: Option<&BitMatrix>,
        users: &[u32],
        k: usize,
    ) -> Vec<Vec<ScoredItem>> {
        match self.cfg.retrieval {
            Retrieval::Exact => self.rank_many_exact(cur.snapshot(), deal, users, k),
            Retrieval::Ivf {
                n_clusters,
                n_probe,
            } => {
                // The index of *this* pinned version, so a response never
                // blends an index from one publish with tables from
                // another. Route once per distinct query vector across
                // the block (queued duplicates are common under coalesced
                // bursty traffic), then score each user over its route.
                let index = self
                    .ivf
                    .get_or_build(cur.version(), || self.build_ivf(cur, n_clusters));
                let routes = index.probe_cells_block(cur.snapshot(), users, n_probe);
                users
                    .iter()
                    .zip(&routes)
                    .map(|(&user, cells)| {
                        self.rank_ivf_cells(cur.snapshot(), &index, deal, user, k, cells)
                    })
                    .collect()
            }
        }
    }

    /// The IVF scoring path over one user's precomputed cell route
    /// ([`IvfIndex::probe_cells_block`] routes once per distinct query
    /// vector): score the routed cells' members (each cell's *packed*
    /// item tables streamed in [`BLOCK_SIZE`] chunks through
    /// [`IvfIndex::score_cell`]) with the same seen-filter probe and heap
    /// as the exhaustive walk.
    ///
    /// `n_probe` caps the cells scored; the per-cell bound picks cells
    /// within that cap. The routed cells are visited in descending bound
    /// ([`IvfIndex::scan_order`]), and the scan stops before the first
    /// cell whose bound is strictly below a full heap's k-th score: no
    /// member of it, or of any cell after it, could enter the heap (see
    /// the `ivf` module's "Exactness envelope"). So the reply is
    /// bit-identical to scoring every routed cell.
    ///
    /// Scores are bit-identical to the exhaustive pass per surviving
    /// item, and the heap selects under a strict total order — its
    /// output depends only on the candidate *set*, not arrival order —
    /// so probing every cell reproduces [`Self::rank_many_exact`]
    /// bit-for-bit.
    fn rank_ivf_cells(
        &self,
        snapshot: &EmbeddingSnapshot,
        index: &IvfIndex,
        deal: Option<&BitMatrix>,
        user: u32,
        k: usize,
        cells: &[usize],
    ) -> Vec<ScoredItem> {
        let mut topk = TopK::new(k);
        let seen = self.seen.as_ref().map(|f| f.row_words(user as usize));
        let deal = deal.map(|f| f.row_words(0));
        let mut scores = vec![0.0f32; BLOCK_SIZE.min(snapshot.n_items().max(1))];
        for (cell, bound) in index.scan_order(snapshot, user, cells) {
            if let Some((_, kth)) = topk.threshold() {
                if bound < f64::from(kth) {
                    break;
                }
            }
            #[cfg(test)]
            CELLS_SCORED.with(|c| c.set(c.get() + 1));
            let list = index.list(cell);
            let mut start = 0usize;
            while start < list.len() {
                let len = BLOCK_SIZE.min(list.len() - start);
                let out = &mut scores[..len];
                index.score_cell(snapshot, user, cell, start, out);
                topk.offer_listed(&list[start..start + len], out, seen, deal, self.start);
                start += len;
            }
        }
        topk.into_sorted()
    }

    /// The exhaustive scoring path: one catalogue walk scores every
    /// user in `users` (one [`EngineConfig::user_block`]-sized block),
    /// maintaining a per-user seen-filter probe and top-K heap over the
    /// shared score block.
    fn rank_many_exact(
        &self,
        snapshot: &EmbeddingSnapshot,
        deal: Option<&BitMatrix>,
        users: &[u32],
        k: usize,
    ) -> Vec<Vec<ScoredItem>> {
        let n_items = snapshot.n_items();
        let mut topks: Vec<TopK> = users.iter().map(|_| TopK::new(k)).collect();
        let seens: Vec<Option<&[u64]>> = users
            .iter()
            .map(|&u| self.seen.as_ref().map(|f| f.row_words(u as usize)))
            .collect();
        let deal = deal.map(|f| f.row_words(0));
        let (owns, socials) = snapshot.user_rows(users);
        let len_cap = BLOCK_SIZE.min(n_items.max(1));
        let mut block = vec![0.0f32; users.len() * len_cap];
        let mut start = 0usize;
        while start < n_items {
            let len = BLOCK_SIZE.min(n_items - start);
            let out = &mut block[..users.len() * len];
            snapshot.score_block_rows(&owns, &socials, start, len, out);
            for (u, topk) in topks.iter_mut().enumerate() {
                let scores = &out[u * len..(u + 1) * len];
                topk.offer_block(start as u32, scores, seens[u], deal, self.start);
            }
            start += len;
        }
        topks.into_iter().map(TopK::into_sorted).collect()
    }
}

/// Scores users against the full catalogue and keeps the top K: one
/// scoring core over whatever snapshot its handle serves.
pub struct QueryEngine {
    handle: SnapshotHandle,
    /// Deal-state filter (one row of item bits, bit set ⇒ blocked) and
    /// its generation, swapped at runtime as deal lifecycles progress.
    deal: DealSlot,
    /// Scripted fault schedule (tests/soaks only): consulted at every
    /// uncached scoring dispatch. `None` in production — one branch.
    faults: Option<Arc<FaultPlan>>,
    core: Core,
}

impl QueryEngine {
    /// Engine over a fixed `snapshot` with default tuning, no filter, no
    /// cache.
    pub fn new(snapshot: EmbeddingSnapshot) -> Self {
        Self::with_config(snapshot, EngineConfig::default())
    }

    /// Engine over a fixed `snapshot` with explicit tuning.
    pub fn with_config(snapshot: EmbeddingSnapshot, cfg: EngineConfig) -> Self {
        Self::with_handle(SnapshotHandle::new(snapshot), cfg)
    }

    /// Engine over a shared [`SnapshotHandle`]: snapshots published to
    /// the handle (e.g. by a trainer mid-run) are served by the very next
    /// query, no restart needed.
    pub fn with_handle(handle: SnapshotHandle, cfg: EngineConfig) -> Self {
        Self {
            handle,
            deal: DealSlot::new(),
            faults: None,
            core: Core::new(&cfg, 0),
        }
    }

    /// Attaches a scripted [`FaultPlan`] (tests and soaks): the engine
    /// consults it at every uncached scoring dispatch, where an injected
    /// panic lands exactly where a real scoring bug would — outside any
    /// engine lock, inside the supervision boundary of the `try_*` APIs
    /// and the service workers.
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Installs a seen-item filter; filtered items never appear in
    /// results. Any responses already cached are discarded — they were
    /// computed without the filter and could leak seen items.
    ///
    /// # Panics
    /// Panics if the bitset shape disagrees with the served snapshot.
    /// The universe is grow-only: later publishes may append items past
    /// the filter's columns, and those items probe as unseen.
    pub fn with_seen_filter(mut self, filter: BitMatrix) -> Self {
        check_seen_filter(&filter, self.handle.load().snapshot());
        self.core.set_seen_filter(Arc::new(filter));
        self
    }

    /// Installs (or replaces) the deal-state candidate filter: one row of
    /// item bits, bit `n` set ⇒ item `n` is blocked for *every* user —
    /// e.g. `gb_data::EventLog::blocked_items_at` masking items whose
    /// most recent deal is not in an allowed phase (live / expiring /
    /// full). Composes with the per-user seen filter: a candidate
    /// survives only if both gates pass.
    ///
    /// Takes effect for every subsequent query (in-flight queries keep
    /// the filter they started with). Cached responses computed under the
    /// previous filter are invalidated *by key*: the cache key carries
    /// the filter generation, so stale entries become unreachable and age
    /// out of the LRU — same rule a publish applies via the version.
    ///
    /// Items past the filter's columns (appended by a later grow-only
    /// publish) probe as allowed.
    ///
    /// # Panics
    /// Panics unless the filter is exactly one row.
    pub fn set_deal_filter(&self, filter: BitMatrix) {
        assert_eq!(filter.rows(), 1, "deal filter is one row of item bits");
        self.deal.swap(Some(filter));
    }

    /// Removes the deal-state filter; subsequent queries gate candidates
    /// on the seen filter alone. Bumps the filter generation like
    /// [`QueryEngine::set_deal_filter`].
    pub fn clear_deal_filter(&self) {
        self.deal.swap(None);
    }

    /// How many times the deal-state filter has been installed, replaced,
    /// or cleared — the cache-key component that retires responses
    /// computed under an earlier filter.
    pub fn deal_generation(&self) -> u64 {
        self.deal.generation()
    }

    /// Whether this engine caches responses.
    pub(crate) fn has_cache(&self) -> bool {
        self.core.cache.is_some()
    }

    /// Users scored per catalogue pass on the batched path (≥ 1).
    pub fn user_block(&self) -> usize {
        self.core.cfg.user_block
    }

    /// The candidate-generation mode this engine serves with.
    pub fn retrieval(&self) -> Retrieval {
        self.core.cfg.retrieval
    }

    /// The newest snapshot version an IVF index has been built for
    /// (`None` before the first IVF-mode query, or in exact mode). After
    /// any IVF-mode query this is at least the version that query
    /// reported — the rebuild-on-publish observability hook.
    pub fn ivf_index_version(&self) -> Option<u64> {
        self.core.ivf.newest()
    }

    /// The handle the engine reads; publish to it to hot-swap the served
    /// snapshot.
    pub fn handle(&self) -> &SnapshotHandle {
        &self.handle
    }

    /// The currently-served `(version, snapshot)` pair.
    pub fn snapshot(&self) -> Arc<VersionedSnapshot> {
        self.handle.load()
    }

    /// Users in the served universe (fixed across publishes).
    pub fn n_users(&self) -> usize {
        self.handle.load().snapshot().n_users()
    }

    /// `(hits, misses)` of the response cache (zeros when disabled).
    pub fn cache_stats(&self) -> (u64, u64) {
        self.core.cache_stats()
    }

    /// Top-`k` unseen items for `user`, best first: a batch of one
    /// through [`QueryEngine::try_recommend_batch`], so the same
    /// validation, cache and supervision contract applies. Results are
    /// shared `Arc`s so cache hits are allocation-free.
    pub fn try_recommend(&self, user: u32, k: usize) -> Result<Arc<Vec<ScoredItem>>, ServeError> {
        self.try_recommend_batch(&[user], k)
            .map(|(_, mut lists)| lists.swap_remove(0))
    }

    /// Top-`k` unseen items for each of `users`, all answered from *one*
    /// pinned snapshot version, which is returned alongside the results —
    /// the engine's one request boundary.
    ///
    /// The whole batch is validated up front: any out-of-range user
    /// rejects it with [`ServeError::InvalidRequest`] before work
    /// happens. A panic anywhere in the scoring pass is caught here and
    /// returned as one [`ServeError::Poisoned`] for the batch — per-user
    /// partial results are never fabricated from an interrupted pass, and
    /// the engine survives (its locks are poison-tolerant and no critical
    /// section can be interrupted mid-mutation; see `crate::error`).
    ///
    /// Uncached users are scored in blocks of up to
    /// [`EngineConfig::user_block`], each block walking the catalogue
    /// *once* (the item tables stream from memory once per block instead
    /// of once per user); each computed response fills the cache on the
    /// way out. Batching and block sizes are scheduling choices, never
    /// numeric ones: every per-user result is the reference top-`k` of
    /// that user's scores. Duplicate users are computed once and share
    /// one `Arc`.
    pub fn try_recommend_batch(&self, users: &[u32], k: usize) -> VersionedBatchResult {
        let cur = self.handle.load();
        check_users(users, cur.snapshot().n_users())?;
        let (deal_gen, deal) = self.deal.load();
        catch_unwind(AssertUnwindSafe(|| {
            let faults = self.faults.as_deref();
            self.core
                .serve(&cur, deal_gen, deal.as_deref(), users, k, faults)
        }))
        .map(|r| (cur.version(), r))
        .map_err(|p| ServeError::poisoned(p.as_ref(), "batched scoring"))
    }
}

/// What the serving front ([`crate::service::RecommendService`]) needs
/// from an engine — implemented by the single-catalogue [`QueryEngine`]
/// and by the scatter-gather [`crate::router::ShardedEngine`], so one
/// worker-pool/coalescing/latency layer fronts both.
pub trait ServeEngine: Send + Sync + 'static {
    /// Users in the served universe (fixed across publishes).
    fn n_users(&self) -> usize;

    /// Users scored per catalogue pass on the batched path (≥ 1) — the
    /// service coalescer's lower bound for group sizing.
    fn user_block(&self) -> usize;

    /// Whether responses are cached (drives [`RecommendService::warm`]'s
    /// no-op shortcut).
    ///
    /// [`RecommendService::warm`]: crate::service::RecommendService::warm
    fn has_cache(&self) -> bool;

    /// The candidate-generation mode served with.
    fn retrieval(&self) -> Retrieval;

    /// Top-`k` per user, all pinned to one snapshot version (returned
    /// alongside) — the supervision boundary the service's workers score
    /// through. Validation failures and caught scoring panics come back
    /// as typed [`ServeError`]s instead of panicking the caller.
    ///
    /// The contract every implementation upholds: results are in input
    /// order, each per-user result is the same whichever batch it rides
    /// in, and the reported version is the one *every* returned ranking
    /// was computed from.
    fn try_recommend_many(&self, users: &[u32], k: usize) -> VersionedBatchResult;
}

impl ServeEngine for QueryEngine {
    fn n_users(&self) -> usize {
        QueryEngine::n_users(self)
    }

    fn user_block(&self) -> usize {
        QueryEngine::user_block(self)
    }

    fn has_cache(&self) -> bool {
        QueryEngine::has_cache(self)
    }

    fn retrieval(&self) -> Retrieval {
        QueryEngine::retrieval(self)
    }

    fn try_recommend_many(&self, users: &[u32], k: usize) -> VersionedBatchResult {
        QueryEngine::try_recommend_batch(self, users, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_eval::topk::reference_topk;
    use gb_eval::Scorer;
    use gb_tensor::Matrix;

    /// One user's reply and the version it was computed from.
    fn versioned(engine: &QueryEngine, user: u32, k: usize) -> (u64, Arc<Vec<ScoredItem>>) {
        let (version, mut lists) = engine.try_recommend_batch(&[user], k).unwrap();
        (version, lists.swap_remove(0))
    }

    fn snapshot(n_users: usize, n_items: usize, d: usize) -> EmbeddingSnapshot {
        EmbeddingSnapshot::new(
            0.4,
            Matrix::from_fn(n_users, d, |r, c| ((r * 7 + c * 3) as f32 * 0.17).sin()),
            Matrix::from_fn(n_items, d, |r, c| ((r * 5 + c) as f32 * 0.31).cos()),
            Matrix::from_fn(n_users, d, |r, c| ((r + c * 11) as f32 * 0.13).sin()),
            Matrix::from_fn(n_items, d, |r, c| ((r * 3 + c * 2) as f32 * 0.23).cos()),
        )
    }

    #[test]
    fn unfiltered_topk_matches_reference_ranking() {
        // Two full blocks and a tail.
        let snap = snapshot(6, 1100, 8);
        let engine = QueryEngine::new(snap.clone());
        let candidates: Vec<u32> = (0..1100).collect();
        for user in 0..6u32 {
            let got: Vec<(u32, f32)> = engine
                .try_recommend(user, 10)
                .unwrap()
                .iter()
                .map(|e| (e.item, e.score))
                .collect();
            assert_eq!(
                got,
                reference_topk(&snap, user, &candidates, 10),
                "user {user}"
            );
        }
    }

    #[test]
    fn filtered_items_never_returned() {
        let snap = snapshot(4, 200, 8);
        let mut seen = gb_graph::BitMatrix::zeros(4, 200);
        for item in (0..200).step_by(3) {
            seen.set(1, item);
        }
        let engine = QueryEngine::new(snap).with_seen_filter(seen);
        let rec = engine.try_recommend(1, 200).unwrap();
        assert_eq!(rec.len(), 200 - 67, "67 items filtered");
        assert!(rec.iter().all(|e| e.item % 3 != 0), "a seen item leaked");
        // Other users are unaffected.
        assert_eq!(engine.try_recommend(0, 200).unwrap().len(), 200);
    }

    #[test]
    fn filtered_ranking_matches_reference_over_unseen() {
        let snap = snapshot(3, 150, 4);
        let mut seen = gb_graph::BitMatrix::zeros(3, 150);
        for item in [0usize, 5, 64, 65, 128, 149] {
            seen.set(2, item);
        }
        let engine = QueryEngine::new(snap.clone()).with_seen_filter(seen);
        let unseen: Vec<u32> = (0..150u32)
            .filter(|i| ![0u32, 5, 64, 65, 128, 149].contains(i))
            .collect();
        let got: Vec<(u32, f32)> = engine
            .try_recommend(2, 7)
            .unwrap()
            .iter()
            .map(|e| (e.item, e.score))
            .collect();
        assert_eq!(got, reference_topk(&snap, 2, &unseen, 7));
    }

    #[test]
    fn cache_returns_identical_results_and_counts_hits() {
        let snap = snapshot(5, 100, 8);
        let engine = QueryEngine::with_config(
            snap,
            EngineConfig {
                cache_capacity: 8,
                ..Default::default()
            },
        );
        let first = engine.try_recommend(3, 5).unwrap();
        let second = engine.try_recommend(3, 5).unwrap();
        assert!(
            Arc::ptr_eq(&first, &second),
            "second query should be a cache hit"
        );
        assert_eq!(engine.cache_stats(), (1, 1));
        // Different k is a different cache entry with consistent content.
        let shorter = engine.try_recommend(3, 3).unwrap();
        assert_eq!(&first[..3], &shorter[..]);
    }

    #[test]
    fn k_larger_than_catalogue_returns_everything_ranked() {
        let snap = snapshot(2, 40, 4);
        let engine = QueryEngine::new(snap.clone());
        let rec = engine.try_recommend(0, 1000).unwrap();
        assert_eq!(rec.len(), 40);
        let scores = snap.score_items(0, &(0..40u32).collect::<Vec<_>>());
        for pair in rec.windows(2) {
            assert!(
                pair[0].score > pair[1].score
                    || (pair[0].score == pair[1].score && pair[0].item < pair[1].item)
            );
        }
        for e in rec.iter() {
            assert_eq!(e.score, scores[e.item as usize]);
        }
    }

    #[test]
    fn installing_filter_discards_stale_cached_responses() {
        let snap = snapshot(3, 100, 4);
        let engine = QueryEngine::with_config(
            snap,
            EngineConfig {
                cache_capacity: 8,
                ..Default::default()
            },
        );
        // Populate the cache pre-filter, then install a filter that
        // bans everything the cached answer contained.
        let before = engine.try_recommend(0, 10).unwrap();
        let mut seen = gb_graph::BitMatrix::zeros(3, 100);
        for e in before.iter() {
            seen.set(0, e.item as usize);
        }
        let engine = engine.with_seen_filter(seen);
        let after = engine.try_recommend(0, 10).unwrap();
        for e in after.iter() {
            assert!(
                !before.iter().any(|b| b.item == e.item),
                "stale cached item {} served past the filter",
                e.item
            );
        }
    }

    #[test]
    fn publish_hot_swaps_the_served_snapshot() {
        let old = snapshot(4, 60, 8);
        let new = snapshot(4, 60, 4); // different tables, same universe
        let engine = QueryEngine::new(old.clone());
        let before: Vec<(u32, f32)> = engine
            .try_recommend(1, 60)
            .unwrap()
            .iter()
            .map(|e| (e.item, e.score))
            .collect();
        let candidates: Vec<u32> = (0..60).collect();
        assert_eq!(before, reference_topk(&old, 1, &candidates, 60));

        let v = engine.handle().publish(new.clone());
        assert_eq!(v, 2);
        let (ver, after) = versioned(&engine, 1, 60);
        assert_eq!(ver, 2);
        let after: Vec<(u32, f32)> = after.iter().map(|e| (e.item, e.score)).collect();
        assert_eq!(
            after,
            reference_topk(&new, 1, &candidates, 60),
            "post-publish ranking must come from the new tables"
        );
    }

    #[test]
    fn cached_responses_never_cross_a_version_boundary() {
        let v1 = snapshot(3, 80, 4);
        let v2 = snapshot(3, 80, 8);
        let engine = QueryEngine::with_config(
            v1.clone(),
            EngineConfig {
                cache_capacity: 16,
                ..Default::default()
            },
        );
        let (ver1, first) = versioned(&engine, 2, 10);
        assert_eq!(ver1, 1);
        engine.handle().publish(v2.clone());
        let (ver2, fresh) = versioned(&engine, 2, 10);
        assert_eq!(ver2, 2);
        assert!(
            !Arc::ptr_eq(&first, &fresh),
            "the v1 response must not be served for v2"
        );
        let candidates: Vec<u32> = (0..80).collect();
        let fresh: Vec<(u32, f32)> = fresh.iter().map(|e| (e.item, e.score)).collect();
        assert_eq!(fresh, reference_topk(&v2, 2, &candidates, 10));
        // The recompute was a miss, not a stale hit: 0 hits, 2 misses.
        assert_eq!(engine.cache_stats(), (0, 2));
        // Re-querying v2 is a genuine hit.
        let again = versioned(&engine, 2, 10);
        assert_eq!(again.0, 2);
        assert_eq!(engine.cache_stats(), (1, 2));
    }

    fn ivf_engine(snap: EmbeddingSnapshot, n_clusters: usize, n_probe: usize) -> QueryEngine {
        QueryEngine::with_config(
            snap,
            EngineConfig {
                retrieval: Retrieval::Ivf {
                    n_clusters,
                    n_probe,
                },
                ..Default::default()
            },
        )
    }

    #[test]
    fn ivf_full_probe_matches_exact_bitwise() {
        let snap = snapshot(6, 333, 8);
        let exact = QueryEngine::new(snap.clone());
        let ivf = ivf_engine(snap, 7, 7);
        for user in 0..6u32 {
            let e = exact.try_recommend(user, 10).unwrap();
            let a = ivf.try_recommend(user, 10).unwrap();
            assert_eq!(e.len(), a.len(), "user {user}");
            for (x, y) in e.iter().zip(a.iter()) {
                assert_eq!(x.item, y.item, "user {user}");
                assert_eq!(x.score.to_bits(), y.score.to_bits(), "user {user}");
            }
        }
    }

    #[test]
    fn ivf_partial_probe_scores_match_exact_per_item() {
        // A pruned ranking may miss items, but every item it *does*
        // return carries the exact pass's bit-identical score and the
        // returned order is consistent with the exact full ranking.
        let snap = snapshot(4, 200, 8);
        let exact = QueryEngine::new(snap.clone());
        let ivf = ivf_engine(snap, 10, 3);
        let full = exact.try_recommend(1, 200).unwrap(); // the entire exact ranking
        let approx = ivf.try_recommend(1, 20).unwrap();
        assert!(!approx.is_empty());
        let mut last_pos = 0usize;
        for e in approx.iter() {
            let pos = full
                .iter()
                .position(|f| f.item == e.item)
                .expect("approx item exists in the exact ranking");
            assert_eq!(e.score.to_bits(), full[pos].score.to_bits());
            assert!(pos >= last_pos, "approx order must follow exact order");
            last_pos = pos;
        }
    }

    #[test]
    fn ivf_index_rebuilds_on_publish() {
        let old = snapshot(4, 120, 8);
        let new = snapshot(4, 120, 4);
        let engine = ivf_engine(old.clone(), 5, 5);
        assert_eq!(engine.ivf_index_version(), None, "lazy until first query");
        engine.try_recommend(0, 5).unwrap();
        assert_eq!(engine.ivf_index_version(), Some(1));

        engine.handle().publish(new.clone());
        // The stale index survives until a query observes the publish...
        assert_eq!(engine.ivf_index_version(), Some(1));
        let (version, got) = versioned(&engine, 2, 120);
        assert_eq!(version, 2);
        assert_eq!(engine.ivf_index_version(), Some(2), "rebuilt on publish");
        // ...and the post-publish response comes entirely from the new
        // tables (full probe ⇒ must equal exact serving of `new`).
        let candidates: Vec<u32> = (0..120).collect();
        let got: Vec<(u32, f32)> = got.iter().map(|e| (e.item, e.score)).collect();
        assert_eq!(got, reference_topk(&new, 2, &candidates, 120));
    }

    #[test]
    fn ivf_respects_seen_filter() {
        let snap = snapshot(4, 200, 8);
        let mut seen = gb_graph::BitMatrix::zeros(4, 200);
        for item in (0..200).step_by(3) {
            seen.set(1, item);
        }
        let engine = ivf_engine(snap, 8, 8).with_seen_filter(seen);
        let rec = engine.try_recommend(1, 200).unwrap();
        assert_eq!(rec.len(), 200 - 67);
        assert!(rec.iter().all(|e| e.item % 3 != 0), "a seen item leaked");
    }

    #[test]
    fn ivf_knobs_are_clamped() {
        let engine = ivf_engine(snapshot(2, 30, 4), 0, 0);
        assert_eq!(
            engine.retrieval(),
            Retrieval::Ivf {
                n_clusters: 1,
                n_probe: 1
            }
        );
        // One cluster, one probe = the whole catalogue through the IVF
        // path.
        assert_eq!(engine.try_recommend(0, 30).unwrap().len(), 30);
    }

    #[test]
    fn recommend_many_matches_sequential_bitwise() {
        // Every slot of a batch — at every user-block size, duplicates
        // included — is the reference top-k of that user's scores.
        // Two full blocks and a tail.
        let snap = snapshot(7, 1100, 8);
        let candidates: Vec<u32> = (0..1100).collect();
        for user_block in [1usize, 2, 3, 8] {
            let engine = QueryEngine::with_config(
                snap.clone(),
                EngineConfig {
                    user_block,
                    ..Default::default()
                },
            );
            let users: Vec<u32> = vec![3, 0, 6, 1, 3, 5, 2, 4, 0]; // dups included
            let (version, many) = engine.try_recommend_batch(&users, 10).unwrap();
            assert_eq!(version, 1);
            assert_eq!(many.len(), users.len());
            for (slot, &user) in users.iter().enumerate() {
                let want: Vec<(u32, u32)> = reference_topk(&snap, user, &candidates, 10)
                    .into_iter()
                    .map(|(item, score)| (item, score.to_bits()))
                    .collect();
                let got: Vec<(u32, u32)> = many[slot]
                    .iter()
                    .map(|e| (e.item, e.score.to_bits()))
                    .collect();
                assert_eq!(got, want, "user_block {user_block} user {user}");
            }
        }
    }

    #[test]
    fn recommend_many_respects_filter_and_fills_cache() {
        let snap = snapshot(4, 200, 8);
        let mut seen = gb_graph::BitMatrix::zeros(4, 200);
        for item in (0..200).step_by(3) {
            seen.set(1, item);
        }
        let engine = QueryEngine::with_config(
            snap,
            EngineConfig {
                cache_capacity: 16,
                user_block: 4,
                ..Default::default()
            },
        )
        .with_seen_filter(seen);
        let (_, many) = engine.try_recommend_batch(&[0, 1, 2], 200).unwrap();
        assert_eq!(
            many[1].len(),
            200 - 67,
            "user 1 sees the filtered catalogue"
        );
        assert!(many[1].iter().all(|e| e.item % 3 != 0));
        assert_eq!(many[0].len(), 200);
        // The batch filled the cache: sequential queries are pointer hits.
        for (slot, &user) in [0u32, 1, 2].iter().enumerate() {
            let again = engine.try_recommend(user, 200).unwrap();
            assert!(
                Arc::ptr_eq(&again, &many[slot]),
                "user {user} should hit the batch-filled cache"
            );
        }
    }

    #[test]
    fn recommend_many_cache_stats_match_sequential_semantics() {
        // [5, 5, 2] on an empty cache must count like the sequential
        // stream recommend(5), recommend(5), recommend(2): two misses
        // (first touches) and one hit (the duplicate), not three misses.
        let snap = snapshot(6, 60, 4);
        let engine = QueryEngine::with_config(
            snap,
            EngineConfig {
                cache_capacity: 8,
                ..Default::default()
            },
        );
        let (_, many) = engine.try_recommend_batch(&[5, 5, 2], 7).unwrap();
        assert_eq!(engine.cache_stats(), (1, 2));
        assert!(Arc::ptr_eq(&many[0], &many[1]));
        // And the entries really are cached: re-querying is all hits.
        engine.try_recommend(5, 7).unwrap();
        engine.try_recommend(2, 7).unwrap();
        assert_eq!(engine.cache_stats(), (3, 2));
    }

    #[test]
    fn recommend_many_shares_one_arc_across_duplicates() {
        let engine = QueryEngine::new(snapshot(3, 50, 4));
        let (_, many) = engine.try_recommend_batch(&[2, 2, 2], 5).unwrap();
        assert!(Arc::ptr_eq(&many[0], &many[1]));
        assert!(Arc::ptr_eq(&many[1], &many[2]));
    }

    #[test]
    fn recommend_many_empty_users_is_a_noop() {
        let engine = QueryEngine::new(snapshot(2, 10, 4));
        let (version, many) = engine.try_recommend_batch(&[], 5).unwrap();
        assert_eq!(version, 1);
        assert!(many.is_empty());
    }

    #[test]
    fn recommend_many_rejects_out_of_range_users() {
        let engine = QueryEngine::with_config(
            snapshot(2, 10, 4),
            EngineConfig {
                cache_capacity: 4,
                ..Default::default()
            },
        );
        match engine.try_recommend_batch(&[0, 2], 1) {
            Err(ServeError::InvalidRequest { reason }) => {
                assert_eq!(reason, "user 2 out of range (2 users)");
            }
            other => panic!("expected InvalidRequest, got {other:?}"),
        }
        assert_eq!(engine.cache_stats(), (0, 0), "rejected before any work");
    }

    /// A deal filter blocking every item `% 5 == 0`.
    fn deal_filter(n_items: usize) -> gb_graph::BitMatrix {
        let mut f = gb_graph::BitMatrix::zeros(1, n_items);
        for item in (0..n_items).step_by(5) {
            f.set(0, item);
        }
        f
    }

    #[test]
    fn deal_filter_blocks_items_for_every_user() {
        let engine = QueryEngine::new(snapshot(4, 200, 8));
        engine.set_deal_filter(deal_filter(200));
        for user in 0..4u32 {
            let rec = engine.try_recommend(user, 200).unwrap();
            assert_eq!(rec.len(), 160, "user {user}: 40 items blocked");
            assert!(rec.iter().all(|e| e.item % 5 != 0), "a blocked item leaked");
        }
        engine.clear_deal_filter();
        assert_eq!(engine.try_recommend(0, 200).unwrap().len(), 200);
    }

    #[test]
    fn deal_filter_composes_with_seen_filter() {
        let snap = snapshot(3, 150, 8);
        let mut seen = gb_graph::BitMatrix::zeros(3, 150);
        for item in (0..150).step_by(3) {
            seen.set(1, item);
        }
        let engine = QueryEngine::new(snap.clone()).with_seen_filter(seen);
        engine.set_deal_filter(deal_filter(150));
        let allowed: Vec<u32> = (0..150u32).filter(|i| i % 3 != 0 && i % 5 != 0).collect();
        let got: Vec<(u32, f32)> = engine
            .try_recommend(1, 150)
            .unwrap()
            .iter()
            .map(|e| (e.item, e.score))
            .collect();
        assert_eq!(got, reference_topk(&snap, 1, &allowed, 150));
        // A user with no seen bits is gated by the deal filter alone.
        assert_eq!(engine.try_recommend(0, 150).unwrap().len(), 120);
    }

    #[test]
    fn deal_filter_swap_retires_cached_responses_by_generation() {
        let engine = QueryEngine::with_config(
            snapshot(3, 100, 4),
            EngineConfig {
                cache_capacity: 8,
                ..Default::default()
            },
        );
        assert_eq!(engine.deal_generation(), 0);
        let unfiltered = engine.try_recommend(0, 100).unwrap();
        assert_eq!(unfiltered.len(), 100);
        engine.set_deal_filter(deal_filter(100));
        assert_eq!(engine.deal_generation(), 1);
        let filtered = engine.try_recommend(0, 100).unwrap();
        assert_eq!(filtered.len(), 80, "the pre-filter entry must not serve");
        // Clearing is a new generation, not a return to the old key.
        engine.clear_deal_filter();
        assert_eq!(engine.deal_generation(), 2);
        assert_eq!(engine.try_recommend(0, 100).unwrap().len(), 100);
        // All three were misses; re-query under the current generation hits.
        assert_eq!(engine.cache_stats(), (0, 3));
        engine.try_recommend(0, 100).unwrap();
        assert_eq!(engine.cache_stats(), (1, 3));
    }

    #[test]
    fn grown_publish_serves_appended_items_past_old_filters() {
        // Filters installed for the 60-item catalogue; a grow-only
        // publish appends 20 items. Appended ids probe as unseen/allowed
        // on both filters instead of indexing out of bounds.
        let old = snapshot(3, 60, 4);
        let mut seen = gb_graph::BitMatrix::zeros(3, 60);
        seen.set(0, 10);
        let engine = QueryEngine::new(old).with_seen_filter(seen);
        engine.set_deal_filter(deal_filter(60));
        let new = snapshot(3, 80, 4);
        engine.handle().publish(new.clone());
        let rec = engine.try_recommend(0, 80).unwrap();
        let expect: Vec<u32> = (0..80u32)
            .filter(|&i| i != 10 && (i >= 60 || i % 5 != 0))
            .collect();
        assert_eq!(rec.len(), expect.len());
        let got: Vec<(u32, f32)> = rec.iter().map(|e| (e.item, e.score)).collect();
        assert_eq!(got, reference_topk(&new, 0, &expect, 80));
    }

    #[test]
    fn ivf_deal_filter_matches_exact_bitwise() {
        let snap = snapshot(4, 200, 8);
        let exact = QueryEngine::new(snap.clone());
        exact.set_deal_filter(deal_filter(200));
        let ivf = ivf_engine(snap, 8, 8);
        ivf.set_deal_filter(deal_filter(200));
        for user in 0..4u32 {
            let e = exact.try_recommend(user, 200).unwrap();
            let a = ivf.try_recommend(user, 200).unwrap();
            assert_eq!(e.len(), a.len(), "user {user}");
            for (x, y) in e.iter().zip(a.iter()) {
                assert_eq!((x.item, x.score.to_bits()), (y.item, y.score.to_bits()));
            }
        }
    }

    fn delta_for(snap: &EmbeddingSnapshot) -> gb_models::SnapshotDelta {
        let d = snap.own_dim();
        gb_models::SnapshotDelta::new()
            .set_item(7, vec![0.3; d], vec![-0.2; d])
            .set_item(40, vec![-0.8; d], vec![0.5; d])
            .append_item(vec![0.6; d], vec![0.4; d])
            .append_item(vec![-0.1; d], vec![0.9; d])
    }

    #[test]
    fn incremental_ivf_update_matches_exact_after_delta_publish() {
        let snap = snapshot(5, 120, 8);
        let engine = QueryEngine::with_config(
            snap.clone(),
            EngineConfig {
                retrieval: Retrieval::Ivf {
                    n_clusters: 6,
                    n_probe: 6,
                },
                ivf_incremental: true,
                ..Default::default()
            },
        );
        engine.try_recommend(0, 5).unwrap(); // build the v1 index
        assert_eq!(engine.ivf_index_version(), Some(1));
        let delta = delta_for(&snap);
        engine.handle().publish_delta(&delta);
        let cur = engine.snapshot();
        let exact = QueryEngine::new(cur.snapshot().clone());
        for user in 0..5u32 {
            let (version, got) = versioned(&engine, user, 122);
            assert_eq!(version, 2);
            let want = exact.try_recommend(user, 122).unwrap();
            assert_eq!(got.len(), want.len(), "user {user}");
            for (a, b) in got.iter().zip(want.iter()) {
                assert_eq!(
                    (a.item, a.score.to_bits()),
                    (b.item, b.score.to_bits()),
                    "user {user}: incremental full-probe must stay exact"
                );
            }
        }
        assert_eq!(engine.ivf_index_version(), Some(2), "updated on publish");
    }

    #[test]
    fn incremental_ivf_never_blends_across_a_publish() {
        // Partial probe after a delta publish: every returned score must
        // come from the *new* tables — a stale packed cell or list would
        // surface an old-version bit pattern.
        let snap = snapshot(4, 150, 8);
        let engine = QueryEngine::with_config(
            snap.clone(),
            EngineConfig {
                retrieval: Retrieval::Ivf {
                    n_clusters: 10,
                    n_probe: 3,
                },
                ivf_incremental: true,
                ..Default::default()
            },
        );
        engine.try_recommend(0, 5).unwrap();
        engine.handle().publish_delta(&delta_for(&snap));
        let cur = engine.snapshot();
        for user in 0..4u32 {
            let (version, got) = versioned(&engine, user, 20);
            assert_eq!(version, 2);
            assert!(!got.is_empty());
            for e in got.iter() {
                let fresh = cur.snapshot().score_items(user, &[e.item])[0];
                assert_eq!(
                    e.score.to_bits(),
                    fresh.to_bits(),
                    "user {user} item {}: served score blends a stale row",
                    e.item
                );
            }
        }
    }

    #[test]
    fn incremental_ivf_falls_back_to_rebuild_without_a_cached_predecessor() {
        let snap = snapshot(3, 90, 8);
        let engine = QueryEngine::with_config(
            snap.clone(),
            EngineConfig {
                retrieval: Retrieval::Ivf {
                    n_clusters: 5,
                    n_probe: 5,
                },
                ivf_incremental: true,
                ..Default::default()
            },
        );
        // Delta-publish *before* any query: no v1 index exists, so the
        // v2 index must come from a full build — and still serve exactly.
        engine.handle().publish_delta(&delta_for(&snap));
        let cur = engine.snapshot();
        let exact = QueryEngine::new(cur.snapshot().clone());
        let got = engine.try_recommend(1, 92).unwrap();
        let want = exact.try_recommend(1, 92).unwrap();
        assert_eq!(got.len(), want.len());
        for (a, b) in got.iter().zip(want.iter()) {
            assert_eq!((a.item, a.score.to_bits()), (b.item, b.score.to_bits()));
        }
        assert_eq!(engine.ivf_index_version(), Some(2));
    }
}
