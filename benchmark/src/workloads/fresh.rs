//! `freshness` — writes beside reads: an operator wants a deal event to
//! reach served lists quickly. A history model is trained, carried over
//! by checkpoint into a one-step tick model, and served through an
//! incrementally maintained IVF engine behind the service. The writer
//! loop turns each tick of 32 deals into a deal filter, one fine-tune
//! step, a snapshot export, a delta of the touched rows, a delta
//! publish, and polls until a reply carries the new version; beside it
//! an open-loop reader asks 100 queries a second. The operation is one
//! tick: its latency is the freshness lag.

use super::exact::{report_service_counters, K, N_CHECKED};
use super::{one_worker_service, report_loop, set_median, set_op_stats, Samples, IVF_SEED};
use crate::gen;
use crate::oracle;
use crate::pace::{run_open_loop, Schedule, Timing};
use crate::report::Report;
use crate::stats;
use crate::trace::{span_if, Tracer};
use gb_core::{GbgcnConfig, GbgcnModel, ParallelTrainConfig};
use gb_data::synth::{generate_with_events, SynthConfig};
use gb_data::{Dataset, DealPhase, EventLog};
use gb_graph::BitMatrix;
use gb_models::{EmbeddingSnapshot, SnapshotDelta, SnapshotSource};
use gb_serve::{
    seen_filter, EngineConfig, IvfIndex, QueryEngine, RecommendService, Retrieval, SnapshotHandle,
};
use rand::Rng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

const TICK_DEALS: usize = 32;
const READER_RATE_PER_S: u64 = 100;
const N_CLUSTERS: usize = 16;
const N_PROBE: usize = 4;
/// Logical-time age at which an open deal counts as expiring.
const EXPIRING_AFTER: u64 = 2000;
/// Deal phases that stay recommendable; expired deals are masked.
const ALLOWED: [DealPhase; 3] = [DealPhase::Live, DealPhase::Expiring, DealPhase::Full];
/// Mean recall@10 of the served lists on the last version below which
/// the run is not correct (measured 0.86–1.0 over the seeds tried).
const RECALL_FLOOR: f64 = 0.6;
/// Polls for the new version before a tick counts as failed.
const MAX_POLLS: usize = 100;

/// `(ticks held back from history, history pre-train epochs, history
/// fine-tune epochs)`.
fn scale(smoke: bool) -> (usize, usize, usize) {
    if smoke {
        (16, 2, 1)
    } else {
        (150, 10, 3)
    }
}

/// Ticks a run of `seconds` makes: eleven a second at the ≈ 90 ms a tick
/// takes here, as a count fixed by the arguments alone — the tables the
/// last tick leaves (and so `quality_at_10`) must not depend on how
/// fast the box happened to be.
fn ticks_for(seconds: f64, held_back: usize) -> usize {
    ((seconds * 11.0).round() as usize).clamp(4, held_back)
}

/// The trainer shares the box with the service worker: one thread.
fn par() -> ParallelTrainConfig {
    ParallelTrainConfig {
        n_shards: 4,
        n_threads: 1,
        refresh_every: 0,
    }
}

fn tick_config(seed: u64) -> GbgcnConfig {
    GbgcnConfig {
        pretrain_epochs: 0,
        finetune_epochs: 1,
        batch_size: TICK_DEALS,
        seed,
        ..GbgcnConfig::default()
    }
}

/// Everything the writer owns.
struct Writer {
    data: Dataset,
    log: EventLog,
    /// Behaviors before the first tick; the tick model's graphs.
    hist: Dataset,
    n_hist: usize,
    /// Logical time of each deal's last event.
    last_ts: Vec<u64>,
    model: GbgcnModel,
    handle: SnapshotHandle,
    /// The seen filter the engine serves with, for the oracle.
    seen: BitMatrix,
    /// The deal mask most recently installed.
    deal: Option<BitMatrix>,
}

fn build(
    seed: u64,
    smoke: bool,
    mut t: Option<&mut Tracer>,
) -> (Writer, RecommendService<QueryEngine>) {
    let (held_back, pre, fine) = scale(smoke);
    let (data, log) = span_if(&mut t, "data.generate", || {
        generate_with_events(&SynthConfig::beibei_like().with_seed(seed))
    });
    let n_hist = data.behaviors().len() - held_back * TICK_DEALS;
    let hist = data.with_behaviors(data.behaviors()[..n_hist].to_vec());
    let mut last_ts = vec![0u64; log.n_deals()];
    for ev in log.events() {
        last_ts[ev.deal as usize] = ev.ts;
    }

    // History model, then the same parameters under the tick recipe.
    let mut history = GbgcnModel::new(
        GbgcnConfig {
            pretrain_epochs: pre,
            finetune_epochs: fine,
            seed,
            ..GbgcnConfig::default()
        },
        &hist,
    );
    history.fit_parallel(&hist, &par(), None);
    let mut checkpoint = Vec::new();
    history
        .save_checkpoint(&mut checkpoint)
        .expect("checkpoint into memory");
    let mut model = GbgcnModel::new(tick_config(seed), &hist);
    model
        .load_checkpoint(&checkpoint[..])
        .expect("checkpoint written a moment ago");

    let handle = SnapshotHandle::new(model.export_snapshot());
    let graphs = hist.build_hetero();
    let seen = span_if(&mut t, "graph.seen_filter_build", || seen_filter(&graphs));
    let engine = QueryEngine::with_handle(
        handle.clone(),
        EngineConfig {
            retrieval: Retrieval::Ivf {
                n_clusters: N_CLUSTERS,
                n_probe: N_PROBE,
            },
            ivf_incremental: true,
            ..EngineConfig::default()
        },
    )
    .with_seen_filter(seen.clone());
    let svc = one_worker_service(engine);
    svc.try_recommend(0, K)
        .expect("first query builds the index");
    let writer = Writer {
        data,
        log,
        hist,
        n_hist,
        last_ts,
        model,
        handle,
        seen,
        deal: None,
    };
    (writer, svc)
}

/// Clock readings and by-products of one tick.
struct Tick {
    /// Tick events available.
    start: Instant,
    masked: Instant,
    filtered: Instant,
    trained: Instant,
    exported: Instant,
    delta_built: Instant,
    published: Instant,
    /// First reply on the new version.
    replied: Instant,
    version: u64,
    polls: usize,
    ok: bool,
    /// User and item rows the delta carries.
    rows: usize,
    delta: SnapshotDelta,
    snapshot: EmbeddingSnapshot,
}

/// One pass of the writer loop over tick `k`'s deals.
fn tick(w: &mut Writer, svc: &RecommendService<QueryEngine>, k: usize) -> Tick {
    let lo = w.n_hist + k * TICK_DEALS;
    let deals = w.data.behaviors()[lo..lo + TICK_DEALS].to_vec();
    let start = Instant::now();
    let now = w.last_ts[lo + TICK_DEALS - 1];
    let blocked = w
        .log
        .blocked_items_at(now, EXPIRING_AFTER, &ALLOWED, false, w.data.n_items());
    let masked = Instant::now();
    svc.engine().set_deal_filter(blocked.clone());
    w.deal = Some(blocked);
    let filtered = Instant::now();

    let mut users: Vec<u32> = deals
        .iter()
        .flat_map(|b| std::iter::once(b.initiator).chain(b.participants.iter().copied()))
        .collect();
    users.sort_unstable();
    users.dedup();
    let mut items: Vec<u32> = deals.iter().map(|b| b.item).collect();
    items.sort_unstable();
    items.dedup();
    let fit = w
        .model
        .fit_parallel(&w.hist.with_behaviors(deals), &par(), None);
    let trained = Instant::now();

    let snapshot = w.model.export_snapshot();
    let exported = Instant::now();

    let mut delta = SnapshotDelta::new();
    for &u in &users {
        let u_ix = u as usize;
        delta = delta.set_user(
            u,
            snapshot.user_own().row(u_ix).to_vec(),
            snapshot.user_social().row(u_ix).to_vec(),
        );
    }
    for &i in &items {
        let i_ix = i as usize;
        delta = delta.set_item(
            i,
            snapshot.item_own().row(i_ix).to_vec(),
            snapshot.item_social().row(i_ix).to_vec(),
        );
    }
    let delta_built = Instant::now();
    let version = w.handle.publish_delta(&delta);
    let published = Instant::now();

    let mut polls = 0;
    let mut seen_version = None;
    while polls < MAX_POLLS && seen_version != Some(version) {
        polls += 1;
        seen_version = svc.try_recommend_versioned(users[0], K).ok().map(|r| r.0);
    }
    let replied = Instant::now();
    Tick {
        start,
        masked,
        filtered,
        trained,
        exported,
        delta_built,
        published,
        replied,
        version,
        polls,
        ok: seen_version == Some(version) && fit.final_loss.is_finite(),
        rows: users.len() + items.len(),
        delta,
        snapshot,
    }
}

/// What the reader saw.
#[derive(Default)]
struct Reads {
    timings: Vec<Timing>,
    failed: u64,
    /// Replies older than a version published before they were sent.
    stale: u64,
}

/// The open-loop reader: 100 queries a second until `stop`, each checked
/// against the newest version published before it was sent.
fn read_until(
    svc: &RecommendService<QueryEngine>,
    seed: u64,
    stop: &AtomicBool,
    published: &AtomicU64,
) -> Reads {
    let n_users = svc.engine().n_users() as u32;
    let mut rng = gen::rng(seed, 12);
    let mut reads = Reads::default();
    reads.timings = run_open_loop(
        Schedule::per_second(READER_RATE_PER_S),
        || stop.load(Ordering::SeqCst),
        |_| {
            let floor = published.load(Ordering::SeqCst);
            match svc.try_recommend_versioned(rng.gen_range(0..n_users), K) {
                Ok((version, _)) => reads.stale += u64::from(version < floor),
                Err(_) => reads.failed += 1,
            }
        },
    );
    reads
}

/// Runs `n_ticks` ticks with the reader beside them; `each` sees every
/// finished tick. Returns what the reader saw and the writer's wall time.
fn stream(
    w: &mut Writer,
    svc: &RecommendService<QueryEngine>,
    seed: u64,
    n_ticks: usize,
    mut each: impl FnMut(usize, Tick),
) -> (Reads, f64) {
    let stop = AtomicBool::new(false);
    let published = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| read_until(svc, seed, &stop, &published));
        let start = Instant::now();
        for k in 0..n_ticks {
            let done = tick(w, svc, k);
            published.store(done.version, Ordering::SeqCst);
            each(k, done);
        }
        let wall_s = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::SeqCst);
        let reads = reader.join().expect("reader thread panicked");
        (reads, wall_s)
    })
}

/// Records the checks every freshness run makes on ticks and reads, and
/// counts the reads (the caller counts its ticks).
fn check_stream(r: &mut Report, ticks: usize, slow_ticks: usize, failed_ticks: u64, reads: &Reads) {
    r.check(
        format!(
            "first reply after each of {ticks} publishes carries exactly the published version"
        ),
        slow_ticks == 0 && failed_ticks == 0,
    );
    r.check(
        format!(
            "none of {} reads is older than a version published before it was sent",
            reads.timings.len()
        ),
        reads.stale == 0,
    );
    r.attempted += reads.timings.len() as u64;
    r.failed += reads.failed;
}

/// Whether applying `delta` to the tables served before the tick gives
/// exactly the tables served after it.
fn delta_matches_served(
    before: &EmbeddingSnapshot,
    delta: &SnapshotDelta,
    svc: &RecommendService<QueryEngine>,
) -> bool {
    delta.apply(before) == *svc.engine().snapshot().snapshot()
}

/// Mean recall@10 of the served lists on the last version against the
/// reference over its tables with the composed seen + deal mask.
fn check_recall(r: &mut Report, w: &Writer, svc: &RecommendService<QueryEngine>, seed: u64) -> f64 {
    let served = svc.engine().snapshot();
    let deal = w.deal.as_ref().map(|d| d.row_words(0));
    let users = gen::check_users(seed, served.snapshot().n_users(), N_CHECKED);
    let recalls: Vec<f64> = users
        .iter()
        .map(|&user| {
            let seen = w.seen.row_words(user as usize);
            let want = oracle::reference(served.snapshot(), Some(seen), deal, user, K);
            match svc.try_recommend_versioned(user, K) {
                Ok((version, got)) if version == served.version() => oracle::recall(&got, &want),
                _ => 0.0,
            }
        })
        .collect();
    let mean = recalls.iter().sum::<f64>() / recalls.len() as f64;
    r.check(
        format!("mean recall@10 {mean:.4} on the last version is at least {RECALL_FLOOR}"),
        mean >= RECALL_FLOOR,
    );
    mean
}

pub fn run(r: &mut Report) {
    let a = r.args.clone();
    let n_ticks = ticks_for(a.seconds, scale(a.smoke).0);
    let ((mut w, svc), setup_s, reps) =
        super::repeat_setup(a.smoke, || build(a.seed, a.smoke, None));
    r.set("setup_s", setup_s, reps);

    let mut lags = Samples::default();
    let (mut slow, mut failed, mut delta_ok) = (0usize, 0u64, true);
    let mut before = None;
    let (reads, wall_s) = stream(&mut w, &svc, a.seed, n_ticks, |k, t| {
        lags.push(t.start, t.replied, t.ok);
        slow += usize::from(t.polls != 1);
        failed += u64::from(!t.ok);
        // One sampled tick: the served tables are the delta applied to
        // the tables before it. Tick 0's predecessor is kept for tick 1.
        if k == 0 {
            before = Some(svc.engine().snapshot());
        } else if k == 1 {
            let prev = before.take().expect("kept at tick 0");
            delta_ok = delta_matches_served(prev.snapshot(), &t.delta, &svc);
        }
    });
    lags.wall_s = wall_s;
    report_loop(r, "deals, ticks of 32", &lags, TICK_DEALS as f64, 90.0);
    report_reads(r, &reads);
    check_stream(r, lags.n(), slow, failed, &reads);
    r.check(
        "a sampled tick's SnapshotDelta::apply equals the served tables",
        delta_ok,
    );
    let recall = check_recall(r, &w, &svc, a.seed);
    r.set("quality_at_10", recall, N_CHECKED);
    r.set("peak_rss_mb", crate::host::peak_rss_mb(), 1);
}

/// `(p50, p99, lateness p99)` of the reader in µs, latency from due time.
fn reader_percentiles(reads: &Reads) -> (f64, f64, f64) {
    let mut lat: Vec<f64> = reads
        .timings
        .iter()
        .map(|t| t.latency_ns() as f64 / 1e3)
        .collect();
    let mut late: Vec<f64> = reads
        .timings
        .iter()
        .map(|t| t.late_ns() as f64 / 1e3)
        .collect();
    stats::sort(&mut lat);
    stats::sort(&mut late);
    let tail = stats::tail_percentile(lat.len(), 99.0);
    (
        stats::percentile(&lat, 50.0),
        stats::percentile(&lat, tail),
        stats::percentile(&late, tail),
    )
}

/// The reader's numbers as a phase line (they are per-layer metrics of
/// the traced run, not end-to-end ones).
fn report_reads(r: &mut Report, reads: &Reads) {
    let (p50, p99, late) = reader_percentiles(reads);
    let label = format!(
        "open-loop reader at {READER_RATE_PER_S}/s: p50 {p50:.0} us, tail {p99:.0} us, sent late (tail) {late:.0} us, failed {}",
        reads.failed
    );
    let span_s = reads.timings.last().map_or(0.0, |t| t.done_ns as f64 / 1e9);
    r.phase(&label, span_s, reads.timings.len());
}

pub fn trace(r: &mut Report, t: &mut Tracer) {
    let a = r.args.clone();
    let (mut w, svc) = build(a.seed, a.smoke, Some(t));
    r.set(
        "data.generate_s",
        t.durations_us("data.generate")[0] / 1e6,
        1,
    );
    r.set(
        "graph.seen_filter_build_ms",
        t.durations_us("graph.seen_filter_build")[0] / 1e3,
        1,
    );
    r.set("graph.seen_filter_bytes", w.seen.size_bytes() as f64, 1);
    r.set(
        "models.snapshot_bytes",
        svc.engine().snapshot().snapshot().size_bytes() as f64,
        1,
    );

    // The training layers at the tick's shapes: the history graphs, one
    // 32-deal batch per step.
    super::train::layer_probes(t, &w.hist, &tick_config(a.seed), 1, 6, 1_000);
    super::train::report_layer_probes(t, r);

    // An index maintained directly beside the engine's, the way the
    // engine maintains its own.
    let first = svc.engine().snapshot();
    let mut index = IvfIndex::build(
        first.snapshot(),
        first.version(),
        N_CLUSTERS,
        IVF_SEED,
        true,
    );
    r.set("serve.ivf.size_bytes", index.size_bytes() as f64, 1);
    let side = SnapshotHandle::new(first.snapshot().clone());

    let n_ticks = if a.smoke { 4 } else { 40 };
    let (mut slow, mut failed, mut rows) = (0usize, 0u64, Vec::new());
    let (reads, _) = stream(&mut w, &svc, a.seed, n_ticks, |k, done| {
        let op = k as u64;
        let root = t.record("fresh.tick", op, None, done.start, done.replied);
        let mut stage = |name, from, to| t.record(name, op, Some(root), from, to);
        let filter = stage("fresh.stage.filter", done.start, done.filtered);
        stage("fresh.stage.finetune", done.filtered, done.trained);
        stage("fresh.stage.export", done.trained, done.exported);
        let publish = stage("fresh.stage.publish", done.exported, done.published);
        stage("fresh.stage.first_reply", done.published, done.replied);
        t.record(
            "data.blocked_items_at",
            op,
            Some(filter),
            done.start,
            done.masked,
        );
        t.record(
            "serve.engine.set_deal_filter",
            op,
            Some(filter),
            done.masked,
            done.filtered,
        );
        t.record(
            "models.publish_delta",
            op,
            Some(publish),
            done.delta_built,
            done.published,
        );
        slow += usize::from(done.polls != 1);
        failed += u64::from(!done.ok);
        rows.push(done.rows as f64);

        // Replays beside the tick, outside its lag: the index update the
        // first reply paid for, and what a full publish would have cost.
        let served = svc.engine().snapshot();
        let changed = done.delta.changed_item_ids();
        index = t
            .span("serve.ivf.update", op, None, || {
                index.update(served.snapshot(), served.version(), &changed, 0)
            })
            .0;
        t.span("models.publish_full", op, None, || {
            side.publish(done.snapshot)
        });
    });
    let lag_ms = t.durations_ms("fresh.tick");
    set_median(r, "fresh.lag_ms", &lag_ms);
    set_op_stats(r, &t.durations_us("fresh.tick"), TICK_DEALS as f64, 90.0);
    let stages = [
        ("fresh.stage.filter_ms", "fresh.stage.filter"),
        ("fresh.stage.finetune_ms", "fresh.stage.finetune"),
        ("fresh.stage.export_ms", "fresh.stage.export"),
        ("fresh.stage.publish_ms", "fresh.stage.publish"),
        ("fresh.stage.first_reply_ms", "fresh.stage.first_reply"),
    ];
    for (metric, span) in stages {
        set_median(r, metric, &t.durations_ms(span));
    }
    let covered: Vec<f64> = t
        .ids("fresh.tick")
        .into_iter()
        .map(|id| 1.0 - t.self_ns(id) as f64 / t.duration_ns(id).max(1) as f64)
        .collect();
    let stage_sum = stats::median(&covered);
    r.set("fresh.stage_sum_ratio", stage_sum, covered.len());
    r.check(
        format!("the five stage spans sum to the lag within 5 % ({stage_sum:.4})"),
        (stage_sum - 1.0).abs() <= 0.05,
    );
    set_median(
        r,
        "models.export_snapshot_ms",
        &t.durations_ms("fresh.stage.export"),
    );
    set_median(
        r,
        "data.blocked_items_at_us",
        &t.durations_us("data.blocked_items_at"),
    );
    set_median(
        r,
        "serve.engine.set_deal_filter_us",
        &t.durations_us("serve.engine.set_deal_filter"),
    );
    set_median(
        r,
        "models.publish_delta_us",
        &t.durations_us("models.publish_delta"),
    );
    set_median(
        r,
        "models.publish_full_us",
        &t.durations_us("models.publish_full"),
    );
    set_median(
        r,
        "serve.ivf.update_us",
        &t.durations_us("serve.ivf.update"),
    );
    r.set(
        "models.delta_rows",
        rows.iter().sum::<f64>() / rows.len().max(1) as f64,
        rows.len(),
    );

    let (p50, p99, late) = reader_percentiles(&reads);
    r.set("bench.reader_p50_us", p50, reads.timings.len());
    r.set("bench.reader_p99_us", p99, reads.timings.len());
    r.set("bench.loadgen_late_p99_us", late, reads.timings.len());
    check_stream(r, n_ticks, slow, failed, &reads);
    r.attempted += n_ticks as u64;
    r.failed += failed;
    report_service_counters(r, &svc);
    check_recall(r, &w, &svc, a.seed);
}
