//! The concurrent query front: a std-thread worker pool over a bounded
//! request queue.
//!
//! [`RecommendService`] owns an `Arc` of any [`ServeEngine`] — a single
//! [`QueryEngine`] or a [`ShardedEngine`](crate::router::ShardedEngine)
//! behind the same queue — and `n` worker threads draining a bounded
//! channel. Callers block on a per-request reply channel — classic
//! request/response over `std::sync::mpsc`, no async runtime required.
//!
//! ## Adaptive query coalescing
//!
//! The catalogue pass is memory-bound on the item tables, so a worker
//! that pops a query also drains more *compatible* queued queries (same
//! `k`; one engine call pins one snapshot version for all of them) and
//! answers the whole group through [`ServeEngine::try_recommend_many`]
//! — one catalogue pass per `user_block` users instead of one per
//! request.
//!
//! How greedily a worker drains is sized from the live queue depth
//! (`coalesce_limit`): an idle service groups at most `user_block`
//! (grabbing more would only add queue wait for work that saves
//! nothing), while under backlog the group grows toward
//! `ServiceConfig::coalesce_cap` so one dequeue amortizes lock and
//! dispatch overhead across a burst — the engine still walks the
//! catalogue in `user_block`-sized chunks internally, so a large group
//! costs the same passes, just fewer handoffs. Coalescing never changes
//! any response: per-user results are bit-identical to sequential
//! serving, only the latency distribution moves.
//!
//! ## Latency semantics
//!
//! Every request is stamped when it is *enqueued*, and its recorded
//! latency is enqueue→reply — queue wait included. (Stamping at dequeue,
//! as this service once did, silently under-reports tail latency exactly
//! when it matters: under backlog.) Samples drain into a
//! [`gb_eval::timing::Stopwatch`] for the efficiency tables;
//! [`RecommendService::requests_served`] is a separate monotone counter
//! that draining does not reset.
//!
//! ## Failure semantics
//!
//! Every request API returns typed [`ServeError`]s. Three failure
//! paths, three counters, one rule — **only served requests feed the
//! latency percentiles** (the same exclusion the warm-up traffic
//! already gets):
//!
//! * **Shedding** ([`ServiceConfig::shed_watermark`]): a request that
//!   arrives while the queue depth is at/above the watermark is refused
//!   with [`ServeError::Overloaded`] *before* it is enqueued — bounded
//!   queue wait for everyone already admitted, a cheap typed error for
//!   the flash crowd. Counted in [`RecommendService::requests_shed`].
//! * **Deadlines** ([`ServiceConfig::deadline`]): each admitted request
//!   carries an enqueue-stamped budget; a worker drops it *before*
//!   scoring if the budget has already expired — no catalogue pass is
//!   wasted on an answer nobody is waiting for. The caller gets
//!   [`ServeError::DeadlineExceeded`]; counted in
//!   [`RecommendService::requests_expired`].
//! * **Supervision**: workers score through
//!   [`ServeEngine::try_recommend_many`], whose `catch_unwind` boundary
//!   turns a scoring panic into [`ServeError::Poisoned`] for every
//!   caller in the coalesced group — the worker survives, the service
//!   keeps serving, and [`RecommendService::worker_panics`] records it.

use crate::engine::{QueryEngine, ServeEngine};
use crate::error::{check_users, lock_recover, ServeError};
use crate::topk::ScoredItem;
use gb_eval::timing::Stopwatch;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for [`RecommendService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads draining the request queue.
    pub workers: usize,
    /// Bounded queue depth (backpressure: senders block when full).
    pub queue_depth: usize,
    /// `k` used by [`RecommendService::warm`] to pre-populate the cache.
    pub warm_k: usize,
    /// Upper bound on one coalesced group. The effective per-dequeue
    /// limit adapts between the engine's `user_block` and this cap with
    /// the live queue depth (see `coalesce_limit`).
    pub coalesce_cap: usize,
    /// Queue depth at/above which admission control sheds new `try_*`
    /// requests with [`ServeError::Overloaded`] instead of queueing
    /// them. The default (`usize::MAX`) never sheds — the bounded
    /// queue's blocking backpressure applies, exactly as before this
    /// knob existed. Warm-ups are never shed (they are the cheapest
    /// work to do late).
    pub shed_watermark: usize,
    /// Per-request queue budget: a request still queued this long after
    /// enqueue is dropped by the dequeuing worker *before* scoring and
    /// its caller gets [`ServeError::DeadlineExceeded`]. `None` (the
    /// default) never expires.
    pub deadline: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_depth: 256,
            warm_k: 10,
            coalesce_cap: 64,
            shed_watermark: usize::MAX,
            deadline: None,
        }
    }
}

/// The group-size limit for one dequeue, given the engine's preferred
/// block, the queue depth observed at dequeue time, and the configured
/// cap: `max(user_block, min(depth, cap))`.
///
/// Empty-ish queue → `user_block` (the engine's sweet spot; waiting for
/// more arrivals is not worth the added queue time). Deep queue → up to
/// `cap`, so one worker pass drains a burst. Pure so it can be tested
/// deterministically apart from the live queue.
pub(crate) fn coalesce_limit(user_block: usize, depth: usize, cap: usize) -> usize {
    user_block.max(depth.min(cap)).max(1)
}

/// One reply: the request tag plus either `(snapshot version, ranked
/// items)` or the typed error that refused it.
type Reply = (usize, Result<(u64, Arc<Vec<ScoredItem>>), ServeError>);

/// A queued query, stamped at enqueue time so the recorded latency is
/// enqueue→reply (queue wait included), not dequeue→reply — and so the
/// deadline budget measures true queue wait.
struct QueryJob {
    user: u32,
    k: usize,
    reply: SyncSender<Reply>,
    tag: usize,
    enqueued: Instant,
    /// Queue budget; a worker drops the job unscored once
    /// `enqueued.elapsed() > budget`. `None` never expires.
    budget: Option<Duration>,
}

enum Job {
    Query(QueryJob),
    /// Fire-and-forget cache warm-up. No caller is waiting, so warm jobs
    /// carry no enqueue stamp and never feed the latency samples.
    Warm {
        user: u32,
        k: usize,
    },
}

/// Shared worker-side state: samples and counters every worker feeds.
struct Stats {
    latencies: Mutex<Vec<Duration>>,
    /// Monotone count of *caller-facing* queries completed — deliberately
    /// separate from `latencies`, which
    /// [`RecommendService::latency_stopwatch`] drains. Warm-ups are
    /// counted in `warmed` instead: folding fire-and-forget cache fills
    /// into `served` would skew the `served / batches` mean-group-size
    /// metric, just as recording their latency would skew the percentiles.
    served: AtomicU64,
    /// Monotone count of warm-up jobs completed.
    warmed: AtomicU64,
    /// Engine calls made for query groups (coalescing efficiency:
    /// `served / batches` is the mean group size).
    batches: AtomicU64,
    /// Largest coalesced group seen so far.
    largest_group: AtomicUsize,
    /// Jobs currently enqueued (inc at send, dec at dequeue) — the
    /// signal [`coalesce_limit`] adapts on, and the one admission
    /// control sheds on.
    depth: AtomicUsize,
    /// Requests refused at admission (never enqueued, never scored).
    shed: AtomicU64,
    /// Requests dropped unscored because their queue budget expired.
    expired: AtomicU64,
    /// Scoring panics caught by worker supervision.
    panics: AtomicU64,
}

/// A running recommendation service over any [`ServeEngine`].
///
/// Dropping the service closes the queue and joins all workers.
pub struct RecommendService<E: ServeEngine = QueryEngine> {
    engine: Arc<E>,
    queue: Option<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
    stats: Arc<Stats>,
    warm_k: usize,
    shed_watermark: usize,
    deadline: Option<Duration>,
}

impl<E: ServeEngine> RecommendService<E> {
    /// Starts workers over `engine` with default tuning.
    pub fn start(engine: E) -> Self {
        Self::with_config(engine, ServiceConfig::default())
    }

    /// Starts workers with explicit tuning.
    ///
    /// # Panics
    /// Panics if `workers` is zero.
    pub fn with_config(engine: E, cfg: ServiceConfig) -> Self {
        assert!(cfg.workers > 0, "need at least one worker");
        let engine = Arc::new(engine);
        let stats = Arc::new(Stats {
            latencies: Mutex::new(Vec::new()),
            served: AtomicU64::new(0),
            warmed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            largest_group: AtomicUsize::new(0),
            depth: AtomicUsize::new(0),
            shed: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            panics: AtomicU64::new(0),
        });
        let coalesce_cap = cfg.coalesce_cap.max(1);
        let (tx, rx) = sync_channel::<Job>(cfg.queue_depth.max(1));
        let shared_rx = Arc::new(Mutex::new(rx));
        let workers = (0..cfg.workers)
            .map(|i| {
                let engine = Arc::clone(&engine);
                let rx = Arc::clone(&shared_rx);
                let stats = Arc::clone(&stats);
                std::thread::Builder::new()
                    .name(format!("gb-serve-{i}"))
                    .spawn(move || worker_loop(engine.as_ref(), &rx, &stats, coalesce_cap))
                    // invariant: Builder::spawn errs only on OS thread
                    // exhaustion — nothing to serve with in that state.
                    .expect("spawn worker thread")
            })
            .collect();
        Self {
            engine,
            queue: Some(tx),
            workers,
            stats,
            warm_k: cfg.warm_k.max(1),
            shed_watermark: cfg.shed_watermark,
            deadline: cfg.deadline,
        }
    }

    /// The engine being served (for snapshot/cache introspection).
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// The engine's candidate-generation mode, passed through untouched:
    /// the service layer (queueing, coalescing, latency capture) is
    /// identical for exact and IVF serving, sharded or not — retrieval
    /// is configured once on the engine and every worker serves with it.
    pub fn retrieval(&self) -> crate::engine::Retrieval {
        self.engine.retrieval()
    }

    /// Top-`k` items for one user, computed on a worker thread.
    /// Admission control, the queue deadline, and worker supervision all
    /// report as typed [`ServeError`]s instead of blocking forever or
    /// panicking. See the module docs for the full failure contract.
    pub fn try_recommend(&self, user: u32, k: usize) -> Result<Arc<Vec<ScoredItem>>, ServeError> {
        self.try_recommend_versioned(user, k).map(|(_, r)| r)
    }

    /// [`RecommendService::try_recommend`] reporting the snapshot
    /// version the response was computed from — the whole answer is
    /// consistent with exactly that version even if the trainer
    /// publishes concurrently.
    pub fn try_recommend_versioned(
        &self,
        user: u32,
        k: usize,
    ) -> Result<(u64, Arc<Vec<ScoredItem>>), ServeError> {
        check_users(&[user], self.engine.n_users())?;
        let (reply_tx, reply_rx) = sync_channel(1);
        self.try_send(Job::Query(QueryJob {
            user,
            k,
            reply: reply_tx,
            tag: 0,
            enqueued: Instant::now(),
            budget: self.deadline,
        }))?;
        match reply_rx.recv() {
            Ok((_, result)) => result,
            // invariant: workers reply to every dequeued job (success,
            // expiry, and caught panic all send) — the channel can only
            // drop if the pool is torn down mid-request.
            Err(_) => Err(ServeError::Poisoned {
                reason: "worker pool shut down before replying".into(),
            }),
        }
    }

    /// Top-`k` items for a batch of users: one outcome per input slot,
    /// in input order. Requests fan out across the worker pool (where
    /// adjacent queued requests with the same `k` coalesce into shared
    /// catalogue passes); each answer is the one
    /// [`Self::try_recommend`] gives that user. Slots fail independently
    /// — an out-of-range, shed or expired request costs its own slot an
    /// error while the rest of the batch serves normally, so one flash
    /// crowd cannot turn a whole batch into wasted work.
    pub fn try_recommend_batch(
        &self,
        users: &[u32],
        k: usize,
    ) -> Vec<Result<Arc<Vec<ScoredItem>>, ServeError>> {
        let n_users = self.engine.n_users();
        let (reply_tx, reply_rx): (SyncSender<Reply>, Receiver<Reply>) =
            sync_channel(users.len().max(1));
        let mut out: Vec<Option<Result<Arc<Vec<ScoredItem>>, ServeError>>> =
            vec![None; users.len()];
        let mut waiting = 0usize;
        for (tag, &user) in users.iter().enumerate() {
            if let Err(e) = check_users(&[user], n_users) {
                out[tag] = Some(Err(e));
                continue;
            }
            match self.try_send(Job::Query(QueryJob {
                user,
                k,
                reply: reply_tx.clone(),
                tag,
                enqueued: Instant::now(),
                budget: self.deadline,
            })) {
                Ok(()) => waiting += 1,
                Err(e) => out[tag] = Some(Err(e)),
            }
        }
        drop(reply_tx);
        for _ in 0..waiting {
            match reply_rx.recv() {
                Ok((tag, result)) => out[tag] = Some(result.map(|(_, r)| r)),
                Err(_) => break, // pool torn down; leftovers filled below
            }
        }
        out.into_iter()
            .map(|r| {
                r.unwrap_or(Err(ServeError::Poisoned {
                    reason: "worker pool shut down before replying".into(),
                }))
            })
            .collect()
    }

    /// Enqueues fire-and-forget queries that populate the response cache
    /// for `users` (at the configured `warm_k`), without blocking on the
    /// results. The whole slice is validated first: an out-of-range user
    /// rejects it with [`ServeError::InvalidRequest`] and nothing is
    /// enqueued. A no-op when the engine has no response cache — there
    /// would be nothing to warm, only discarded work.
    pub fn warm(&self, users: &[u32]) -> Result<(), ServeError> {
        check_users(users, self.engine.n_users())?;
        if self.engine.has_cache() {
            for &user in users {
                self.send(Job::Warm {
                    user,
                    k: self.warm_k,
                });
            }
        }
        Ok(())
    }

    /// Drains all recorded enqueue→reply latencies into a [`Stopwatch`].
    ///
    /// Draining does not affect [`RecommendService::requests_served`].
    pub fn latency_stopwatch(&self) -> Stopwatch {
        let mut sw = Stopwatch::new();
        let mut samples = lock_recover(&self.stats.latencies);
        for d in samples.drain(..) {
            sw.record(d);
        }
        sw
    }

    /// Number of caller-facing requests served so far — a monotone
    /// counter, unaffected by draining the latency samples. Warm-ups are
    /// excluded (see [`RecommendService::warmups_served`]): they are not
    /// requests anyone waited on, and counting them here would inflate
    /// the `requests_served / batches_served` mean-group-size metric.
    pub fn requests_served(&self) -> usize {
        self.stats.served.load(Ordering::Relaxed) as usize
    }

    /// Number of fire-and-forget cache warm-ups completed — tracked apart
    /// from [`RecommendService::requests_served`] so warm traffic never
    /// contaminates the serving metrics or latency percentiles.
    pub fn warmups_served(&self) -> usize {
        self.stats.warmed.load(Ordering::Relaxed) as usize
    }

    /// Number of engine calls made for (possibly coalesced) query groups.
    /// `requests_served / batches_served` approximates the mean group
    /// size the coalescer achieved.
    pub fn batches_served(&self) -> usize {
        self.stats.batches.load(Ordering::Relaxed) as usize
    }

    /// The largest coalesced group any worker has served.
    pub fn largest_group(&self) -> usize {
        self.stats.largest_group.load(Ordering::Relaxed)
    }

    /// Requests refused at admission with [`ServeError::Overloaded`] —
    /// never enqueued, never scored, never in the latency percentiles.
    pub fn requests_shed(&self) -> usize {
        self.stats.shed.load(Ordering::Relaxed) as usize
    }

    /// Requests dropped unscored because their queue budget expired
    /// ([`ServeError::DeadlineExceeded`]). Excluded from
    /// [`RecommendService::requests_served`] and the percentiles.
    pub fn requests_expired(&self) -> usize {
        self.stats.expired.load(Ordering::Relaxed) as usize
    }

    /// Scoring panics caught by worker supervision — each one returned
    /// [`ServeError::Poisoned`] to its coalesced group's callers while
    /// the worker survived.
    pub fn worker_panics(&self) -> usize {
        self.stats.panics.load(Ordering::Relaxed) as usize
    }

    /// Admission control for caller-facing requests: shed at/above the
    /// watermark, otherwise enqueue (blocking on a full bounded queue,
    /// the pre-watermark backpressure semantics).
    fn try_send(&self, job: Job) -> Result<(), ServeError> {
        let depth = self.stats.depth.load(Ordering::Relaxed);
        if depth >= self.shed_watermark {
            self.stats.shed.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded {
                depth,
                watermark: self.shed_watermark,
            });
        }
        self.send(job);
        Ok(())
    }

    fn send(&self, job: Job) {
        // Count before sending: a worker may dequeue (and decrement)
        // the instant the job lands.
        self.stats.depth.fetch_add(1, Ordering::Relaxed);
        let sent = self
            .queue
            .as_ref()
            // invariant: `send` is only reachable while `&self` exists,
            // and the queue sender lives until `Drop` takes it.
            .expect("service is running")
            .send(job)
            .is_ok();
        // invariant: workers only exit when the sender side is dropped,
        // and `&self` holds the sender — supervision guarantees no
        // worker dies to a scoring panic.
        assert!(sent, "worker pool is alive");
    }
}

impl<E: ServeEngine> Drop for RecommendService<E> {
    fn drop(&mut self) {
        // Close the queue; workers exit when it drains.
        self.queue.take();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop<E: ServeEngine>(
    engine: &E,
    rx: &Mutex<Receiver<Job>>,
    stats: &Stats,
    coalesce_cap: usize,
) {
    // A job popped while coalescing that could not join the group; it is
    // processed first on the next iteration, never dropped. Its depth
    // decrement already happened when it was popped.
    let mut carry: Option<Job> = None;
    loop {
        let job = match carry.take() {
            Some(job) => job,
            // Hold the queue lock only while popping, never while scoring.
            None => match lock_recover(rx).recv() {
                Ok(job) => {
                    stats.depth.fetch_sub(1, Ordering::Relaxed);
                    job
                }
                Err(_) => return, // queue closed
            },
        };
        match job {
            Job::Query(first) => {
                // Coalesce: opportunistically drain queued queries with the
                // same `k` (all are answered from the one snapshot version
                // try_recommend_many pins) into one shared catalogue pass, up
                // to a limit sized from the backlog at this instant.
                // `try_lock`, not `lock`: an idle peer worker parks *inside*
                // `recv()` while holding the queue mutex, so blocking here
                // would deadlock against a caller that waits for this very
                // reply before enqueueing anything else. A contended lock
                // just means someone else is watching the queue — serve the
                // group we already have.
                let mut group = vec![first];
                let limit = coalesce_limit(
                    engine.user_block(),
                    stats.depth.load(Ordering::Relaxed),
                    coalesce_cap,
                );
                if limit > 1 {
                    if let Ok(queue) = rx.try_lock() {
                        while group.len() < limit {
                            match queue.try_recv() {
                                Ok(job) => {
                                    stats.depth.fetch_sub(1, Ordering::Relaxed);
                                    match job {
                                        Job::Query(job) if job.k == group[0].k => group.push(job),
                                        other => {
                                            carry = Some(other);
                                            break;
                                        }
                                    }
                                }
                                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
                            }
                        }
                    }
                }
                // Deadline check at the last instant before scoring: a
                // job whose budget expired in the queue is dropped here,
                // its caller notified, and no catalogue pass spent on it.
                // Expired jobs never touch `served` or the percentiles.
                let now = Instant::now();
                let mut live = Vec::with_capacity(group.len());
                for job in group {
                    match job.budget {
                        Some(budget) if now.duration_since(job.enqueued) > budget => {
                            stats.expired.fetch_add(1, Ordering::Relaxed);
                            let _ = job
                                .reply
                                .send((job.tag, Err(ServeError::DeadlineExceeded { budget })));
                        }
                        _ => live.push(job),
                    }
                }
                if live.is_empty() {
                    continue;
                }
                let users: Vec<u32> = live.iter().map(|j| j.user).collect();
                // Supervised scoring: a panic anywhere in the engine is
                // caught at this boundary and fanned out as one typed
                // error to every caller in the group — the worker (and
                // the service) outlives any single poisonous query.
                match engine.try_recommend_many(&users, live[0].k) {
                    Ok((version, results)) => {
                        stats.batches.fetch_add(1, Ordering::Relaxed);
                        stats.largest_group.fetch_max(live.len(), Ordering::Relaxed);
                        for (job, result) in live.into_iter().zip(results) {
                            // Record before replying: once the caller has
                            // the answer, the request is in the counters.
                            lock_recover(&stats.latencies).push(job.enqueued.elapsed());
                            stats.served.fetch_add(1, Ordering::Relaxed);
                            // The caller may have given up; ignore.
                            let _ = job.reply.send((job.tag, Ok((version, result))));
                        }
                    }
                    Err(e) => {
                        if matches!(e, ServeError::Poisoned { .. }) {
                            stats.panics.fetch_add(1, Ordering::Relaxed);
                        }
                        // Failed requests are not served: no latency
                        // sample, no `served` tick — errors must never
                        // flatter the percentiles.
                        for job in live {
                            let _ = job.reply.send((job.tag, Err(e.clone())));
                        }
                    }
                }
            }
            Job::Warm { user, k } => {
                // Populate the cache, but keep the serving metrics clean:
                // no caller waited on this, so its wall clock belongs in
                // neither the latency percentiles nor `served`. Warm-ups
                // score through the supervised path too — a poisonous
                // warm-up must not kill the worker (nobody would even
                // notice the hang it would cause).
                match engine.try_recommend_many(&[user], k) {
                    Ok(_) => {
                        stats.warmed.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => {
                        if matches!(e, ServeError::Poisoned { .. }) {
                            stats.panics.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesce_limit_adapts_between_block_and_cap() {
        // Idle queue: the engine's preferred block wins.
        assert_eq!(coalesce_limit(8, 0, 64), 8);
        assert_eq!(coalesce_limit(8, 3, 64), 8);
        // Backlog: grow with depth...
        assert_eq!(coalesce_limit(8, 20, 64), 20);
        // ...but never past the cap.
        assert_eq!(coalesce_limit(8, 500, 64), 64);
        // The cap never shrinks a group below the engine's block.
        assert_eq!(coalesce_limit(8, 500, 4), 8);
        // Degenerate configs still serve one job at a time.
        assert_eq!(coalesce_limit(0, 0, 0), 1);
    }
}
