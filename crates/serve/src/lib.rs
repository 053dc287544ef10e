//! # gb-serve
//!
//! The online inference subsystem: turns any trained recommender into a
//! query-per-millisecond top-K service.
//!
//! The offline side of this workspace ends with a trained model whose
//! scoring reads cached final embeddings. Serving needs none of the
//! training machinery — no graphs, tapes, or parameter stores — so the
//! hand-off artifact is an [`EmbeddingSnapshot`] (re-exported from
//! `gb_models`): the four Eq. 9 tables plus `α`, exported via
//! [`SnapshotSource`] and persisted in one versioned, mappable file
//! format ([`mmap`]).
//!
//! ## Architecture
//!
//! ```text
//!  trained model ──export_snapshot()──▶ EmbeddingSnapshot ──save/open──▶ disk
//!       │ fit_parallel(.., refresh)            │
//!       └──────publish every N epochs──▶ SnapshotHandle  (versioned
//!                                            │            hot swap)
//!                                            ▼ load() per query
//!                        QueryEngine  (blocked scoring kernel,
//!                          │           batched multi-user catalogue
//!                          │           passes, seen-item + deal-state
//!                          │           BitMatrix filters, LRU cache
//!                          │           keyed by (version, deal
//!                          │             generation, user, k))
//!                          ▼
//!                   RecommendService  (bounded queue, N std-thread
//!                          │           workers, multi-user query
//!                          │           coalescing, enqueue→reply
//!                          ▼           latency into gb_eval::timing)
//!    try_recommend / try_recommend_versioned / try_recommend_batch / warm
//! ```
//!
//! A trainer publishing to the engine's [`SnapshotHandle`] hot-swaps the
//! served embeddings without restart: each query pins one
//! `(version, tables)` pair for its whole lifetime, and cached responses
//! are keyed by that version, so a response can never mix snapshots or
//! outlive the version it was computed from. Publishes come in two
//! flavours with identical serving semantics: a full
//! `SnapshotHandle::publish` replaces every table, while
//! `publish_delta` ships only the changed/appended rows and
//! copy-on-writes them over the previous version's shared storage —
//! bitwise the same result, at cost proportional to the delta. The
//! item universe is grow-only across publishes (appended items simply
//! probe as unseen in any shorter filter).
//!
//! * [`topk::TopK`] — bounded min-heap partial sort: `O(n log k)` per
//!   query instead of the eval path's materialize-and-sort
//!   `O(n log n)`, with `O(k)` extra memory.
//! * [`engine::QueryEngine`] — walks the catalogue in fixed 512-item
//!   blocks (128 KiB of a 64-wide table: L2-resident) through `gb_tensor::kernels::blend_dot_block_multi` and offers each
//!   user's score
//!   block to the heap threshold-first ([`topk::TopK::offer_block`]):
//!   only scores that reach the heap floor pay the bit-probe
//!   ([`gb_graph::BitMatrix`]) of the seen filter and the deal filter (a
//!   hot-swappable one-row deal-state mask, e.g. from
//!   `gb_data::EventLog::blocked_items_at`) and the heap push. Optionally
//!   caches `(user, k)` responses in an LRU ([`cache::LruCache`]).
//!   Every request is a batch: `try_recommend_batch` scores up to
//!   `EngineConfig::user_block` users per catalogue pass (the item
//!   tables stream once per block), and a single user is a batch of
//!   one, with per-user results the same whichever batch they ride in.
//! * [`ivf::IvfIndex`] — approximate retrieval for catalogues that
//!   outgrow exhaustive scans ([`engine::Retrieval::Ivf`]): a seeded
//!   deterministic k-means over the concatenated item embeddings routes
//!   each query to its `n_probe` best cells, and only those members are
//!   scored (with the exact kernels — survivor scores are bit-identical,
//!   and probing every cell reproduces exact serving bit-for-bit). The
//!   index is version-tagged and rebuilt on publish; with
//!   [`EngineConfig::ivf_incremental`] a delta publish instead reuses
//!   the previous version's centroids and re-routes only the
//!   changed/appended items ([`IvfIndex::update`]), aliasing every
//!   untouched packed cell.
//! * [`router::ShardedEngine`] — the scale-out tier: partitions the
//!   catalogue along a [`shard::ShardPlan`] and scores each range with
//!   the scoring core a `QueryEngine` is built on (contiguous zero-copy
//!   snapshot slices, the one seen filter and deal row probed at each
//!   shard's item offset, per-shard cache and IVF; one handle and one
//!   deal slot, on the router),
//!   scatters each query to every shard in plan order on the caller's
//!   thread, and merges the gathered
//!   per-shard top-k under the same strict total order — bitwise
//!   identical to a single engine at any shard count, with per-shard +
//!   merge stage timing for tail attribution.
//! * [`mmap`] — the snapshot file format (v2): 64-byte-aligned raw-f32
//!   sections behind a fixed header, validated in `O(1)` and served
//!   straight from the page cache (raw-syscall `mmap` with a heap
//!   fallback), so a multi-GB shard opens in microseconds instead of a
//!   streaming parse; `open_mmap_snapshot_heap` reads the whole file
//!   and also refuses non-finite payloads. A save renames a new file
//!   over the path, so a live mapping never sees a re-save.
//! * [`service::RecommendService`] — a std-thread worker pool consuming
//!   a bounded request queue; workers coalesce queued same-`k` queries
//!   into shared catalogue passes, sized adaptively from the live queue
//!   depth (`service::coalesce_limit`). Generic over [`ServeEngine`],
//!   so a [`router::ShardedEngine`] drops in behind the same queue.
//!   Per-request *enqueue→reply* latency (queue wait included) feeds
//!   [`gb_eval::timing::Stopwatch`]; non-finite scores are dropped by
//!   [`topk::TopK::push`] so a diverged snapshot can never serve a NaN
//!   ranking.
//! * [`error::ServeError`] / [`faults::FaultPlan`] — the failure story:
//!   every tier exposes fallible `try_*` APIs returning typed errors
//!   (overload shedding, queue deadlines, caught scoring panics,
//!   degraded partial scatters), and a deterministic seeded
//!   fault-injection harness drives those paths in proptests and CI
//!   soaks. See the README's "Failure semantics" section for the
//!   contract.
//!
//! Served rankings are *provably consistent* with offline evaluation:
//! the blocked kernel accumulates in the same order as the
//! `gb_eval::Scorer` implementations, and both sides share the
//! tie-break of [`gb_eval::topk::ranks_before`], so a served top-K
//! equals [`gb_eval::topk::reference_topk`] element-for-element (the
//! integration tests assert exactly that). One deliberate exception:
//! the serving heap drops non-finite scores ([`topk::TopK::push`]),
//! while `reference_topk` ranks them wherever `total_cmp` puts them —
//! for any snapshot [`EmbeddingSnapshot::new`] accepts (finite tables;
//! a score can still overflow to `±∞` in the dot product) serving
//! prefers omitting an item to ranking an incomparable score.

pub mod cache;
pub mod engine;
pub mod error;
pub mod faults;
pub mod ivf;
pub mod mmap;
pub mod router;
pub mod service;
pub mod shard;
#[cfg(test)]
mod snapshot_io;
pub mod topk;

pub use cache::LruCache;
pub use engine::{EngineConfig, QueryEngine, Retrieval, ServeEngine, VersionedBatchResult};
pub use error::ServeError;
pub use faults::{corrupt_file, FaultPlan};
pub use gb_models::{EmbeddingSnapshot, SnapshotHandle, SnapshotSource, VersionedSnapshot};
pub use ivf::IvfIndex;
pub use mmap::{open_mmap_snapshot, open_mmap_snapshot_heap, save_mmap_snapshot};
pub use router::{DegradedBatch, DegradedResponse, ShardedConfig, ShardedEngine};
pub use service::{RecommendService, ServiceConfig};
pub use shard::ShardPlan;
pub use topk::{ScoredItem, TopK};

use gb_graph::{BitMatrix, HeteroGraphs};

/// Builds the seen-item filter for a training corpus: bit `(u, n)` is set
/// iff user `u` interacted with item `n` in *either* role (initiated a
/// group for it or participated in one) — the same any-role exclusion the
/// evaluation protocol applies to its candidate sets.
pub fn seen_filter(graphs: &HeteroGraphs) -> BitMatrix {
    let n_items = graphs.n_items();
    let mut bits = BitMatrix::from_csr(graphs.initiator.user_to_item(), n_items);
    let participant = graphs.participant.user_to_item();
    for u in 0..participant.n_nodes() {
        for &item in participant.neighbors(u as u32) {
            bits.set(u, item as usize);
        }
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_graph::HeteroBuilder;

    #[test]
    fn seen_filter_covers_both_roles() {
        let mut b = HeteroBuilder::new(4, 5);
        b.add_behavior(0, 2, &[1, 3]); // 0 initiated item 2; 1 and 3 joined
        b.add_behavior(1, 4, &[]);
        let g = b.build();
        let f = seen_filter(&g);
        assert!(f.contains(0, 2), "initiator role");
        assert!(f.contains(1, 2) && f.contains(3, 2), "participant role");
        assert!(f.contains(1, 4));
        assert!(!f.contains(2, 2) && !f.contains(0, 4));
        assert_eq!(f.rows(), 4);
        assert_eq!(f.cols(), 5);
    }
}
