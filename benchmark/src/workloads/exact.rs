//! `serve_exact` — one user, one query: an app backend asks the service
//! for a launch list and waits for the reply. Exhaustive scoring behind
//! `RecommendService`, one closed-loop client and one worker, cache
//! off. The operation is one reply.

use super::{closed_loop, one_worker_service, report_loop, set_median, set_op_stats, Samples};
use crate::gen;
use crate::oracle;
use crate::report::Report;
use crate::stats;
use crate::trace::{span_if, Tracer};
use gb_graph::BitMatrix;
use gb_models::EmbeddingSnapshot;
use gb_serve::{QueryEngine, RecommendService, ScoredItem};
use gb_tensor::kernels;
use rand::Rng;
use std::sync::Arc;

pub const K: usize = 10;
/// Seeded replies compared with the reference in every run.
pub const N_CHECKED: usize = 64;
const SEEN_PER_USER: usize = 20;

/// `(users, items, embedding width per table)`.
fn shape(smoke: bool) -> (usize, usize, usize) {
    if smoke {
        (512, 2048, 32)
    } else {
        (8000, 20_000, 32)
    }
}

/// The exhaustive engine over a seeded snapshot, with what the oracle
/// needs kept beside it: the tables and the checked users' seen rows.
pub struct Exact {
    pub snapshot: EmbeddingSnapshot,
    pub engine: QueryEngine,
    pub checked: Vec<(u32, Vec<u64>)>,
    pub filter_bytes: usize,
}

/// Builds the snapshot, the 20-items-per-user seen filter and the
/// default-config engine (exact retrieval, cache off).
pub fn build(seed: u64, smoke: bool, mut t: Option<&mut Tracer>) -> Exact {
    let (n_users, n_items, d) = shape(smoke);
    let snapshot = gen::xavier_snapshot(seed, n_users, n_items, d);
    let rows = gen::seen_rows(seed, n_users, n_items, SEEN_PER_USER);
    let filter = span_if(&mut t, "graph.seen_filter_build", || {
        BitMatrix::from_rows(&rows, n_items)
    });
    let checked = gen::check_users(seed, n_users, N_CHECKED)
        .into_iter()
        .map(|u| (u, filter.row_words(u as usize).to_vec()))
        .collect();
    let filter_bytes = filter.size_bytes();
    let engine = QueryEngine::new(snapshot.clone()).with_seen_filter(filter);
    Exact {
        snapshot,
        engine,
        checked,
        filter_bytes,
    }
}

/// Share of the checked users whose `reply` equals the reference bit
/// for bit; also records the check.
pub fn check_bitwise(
    r: &mut Report,
    snapshot: &EmbeddingSnapshot,
    checked: &[(u32, Vec<u64>)],
    mut reply: impl FnMut(u32) -> Option<Arc<Vec<ScoredItem>>>,
) -> f64 {
    let equal = checked
        .iter()
        .filter(|(user, seen)| {
            let want = oracle::reference(snapshot, Some(seen), None, *user, K);
            reply(*user).is_some_and(|got| oracle::bitwise_equal(&got, &want))
        })
        .count();
    r.check(
        format!(
            "{equal} of {} seeded replies equal reference_topk bitwise",
            checked.len()
        ),
        equal == checked.len(),
    );
    equal as f64 / checked.len() as f64
}

pub fn run(r: &mut Report) {
    let a = r.args.clone();
    super::share_one_cpu(r);
    let ((snapshot, checked, svc), setup_s, reps) = super::repeat_setup(a.smoke, || {
        let e = build(a.seed, a.smoke, None);
        (e.snapshot, e.checked, one_worker_service(e.engine))
    });
    r.set("setup_s", setup_s, reps);
    let n_users = snapshot.n_users() as u32;
    let mut rng = gen::rng(a.seed, 10);
    let mut query = || svc.try_recommend(rng.gen_range(0..n_users), K).is_ok();
    closed_loop(if a.smoke { 0.2 } else { 2.0 }, &mut query);
    let s = closed_loop(a.seconds, &mut query);
    report_loop(r, "replies, 1 client + 1 worker", &s, 1.0, 95.0);

    let quality = check_bitwise(r, &snapshot, &checked, |u| svc.try_recommend(u, K).ok());
    r.set("quality_at_10", quality, checked.len());
    r.check(
        "service shed, expired and panicked nothing",
        svc.requests_shed() + svc.requests_expired() + svc.worker_panics() == 0,
    );
    r.set("peak_rss_mb", crate::host::peak_rss_mb(), 1);
}

/// One exhaustive catalogue pass for `user` straight through the
/// kernel, in the engine's 512-item blocks.
pub fn kernel_pass(snapshot: &EmbeddingSnapshot, user: u32, scores: &mut [f32]) {
    let n_items = snapshot.n_items();
    let mut start = 0;
    while start < n_items {
        let len = scores.len().min(n_items - start);
        kernels::blend_dot_block(
            snapshot.user_own().row(user as usize),
            snapshot.item_own(),
            snapshot.user_social().row(user as usize),
            snapshot.item_social(),
            snapshot.alpha(),
            start,
            &mut scores[..len],
        );
        start += len;
    }
    std::hint::black_box(scores);
}

/// The arithmetic and the item-table traffic of one user's catalogue
/// pass, computed from the table sizes; a pass shared by
/// `users_per_pass` users streams the tables once for all of them.
pub fn report_kernel_work(r: &mut Report, snapshot: &EmbeddingSnapshot, users_per_pass: usize) {
    let cells = ((snapshot.own_dim() + snapshot.social_dim()) * snapshot.n_items()) as f64;
    r.set("tensor.flops_per_query", 2.0 * cells, 1);
    r.set(
        "tensor.bytes_per_query",
        4.0 * cells / users_per_pass as f64,
        1,
    );
    r.set("models.snapshot_bytes", snapshot.size_bytes() as f64, 1);
}

/// Reports what the service's own counters say after a traced run.
pub fn report_service_counters<E: gb_serve::ServeEngine>(
    r: &mut Report,
    svc: &RecommendService<E>,
) {
    let n = svc.requests_served();
    r.set("serve.service.largest_group", svc.largest_group() as f64, n);
    r.set(
        "serve.service.batches_served",
        svc.batches_served() as f64,
        n,
    );
    r.set("serve.service.shed", svc.requests_shed() as f64, n);
    r.set("serve.service.expired", svc.requests_expired() as f64, n);
    r.set("serve.service.worker_panics", svc.worker_panics() as f64, n);
}

/// Runs the workload's closed loop twice, bare and with a span recorded
/// around every request: the bare loop gives the traced run's rate,
/// median and tail, the ratio of the two rates what recording costs.
pub fn report_loop_probe(
    r: &mut Report,
    t: &mut Tracer,
    seconds: f64,
    mut query: impl FnMut() -> bool,
) {
    let plain = closed_loop(seconds, &mut query);
    let mut op = 1_000_000u64;
    let traced = closed_loop(seconds, || {
        op += 1;
        t.span("bench.overhead_probe", op, None, &mut query).0
    });
    set_op_stats(r, &plain.lat_us, 1.0, 95.0);
    let rate = |s: &Samples| s.attempted as f64 / s.wall_s;
    r.set(
        "bench.trace_overhead_ratio",
        rate(&traced) / rate(&plain),
        2,
    );
}

pub fn trace(r: &mut Report, t: &mut Tracer) {
    let a = r.args.clone();
    super::share_one_cpu(r);
    let e = build(a.seed, a.smoke, Some(t));
    let (snapshot, checked) = (e.snapshot, e.checked);
    let svc = one_worker_service(e.engine);
    r.set(
        "graph.seen_filter_build_ms",
        t.durations_us("graph.seen_filter_build")[0] / 1e3,
        1,
    );
    r.set("graph.seen_filter_bytes", e.filter_bytes as f64, 1);
    report_kernel_work(r, &snapshot, 1);

    // Each sampled user: the reply through the service, then the same
    // query replayed on the engine, then on the bare kernel.
    let n_ops = if a.smoke { 40 } else { 400 };
    let mut rng = gen::rng(a.seed, 10);
    let mut scores = vec![0.0f32; 512];
    for op in 0..n_ops {
        let user = rng.gen_range(0..snapshot.n_users() as u32);
        let (ok, reply) = t.span("serve.service", op, None, || {
            svc.try_recommend(user, K).is_ok()
        });
        let (_, engine) = t.span("serve.engine", op, Some(reply), || {
            svc.engine().try_recommend(user, K).is_ok()
        });
        t.span("tensor.blend_dot_block", op, Some(engine), || {
            kernel_pass(&snapshot, user, &mut scores)
        });
        r.attempted += 1;
        r.failed += u64::from(!ok);
    }
    let reply = stats::median(&t.durations_us("serve.service"));
    let selves = [
        stats::median(&t.self_us("serve.service")),
        stats::median(&t.self_us("serve.engine")),
        stats::median(&t.durations_us("tensor.blend_dot_block")),
    ];
    r.set("serve.service.reply_us", reply, n_ops as usize);
    r.set("serve.service.self_us", selves[0], n_ops as usize);
    r.set("serve.engine.self_us", selves[1], n_ops as usize);
    r.set("tensor.blend_dot_block_us", selves[2], n_ops as usize);
    set_median(r, "serve.engine.query_us", &t.durations_us("serve.engine"));
    let closure = selves.iter().sum::<f64>() / reply;
    r.set("bench.selftime_sum_ratio", closure, n_ops as usize);
    r.check(
        format!("layer self times sum to the traced reply within 10 % ({closure:.3})"),
        (closure - 1.0).abs() <= 0.10 || a.smoke,
    );

    check_bitwise(r, &snapshot, &checked, |u| svc.try_recommend(u, K).ok());
    report_service_counters(r, &svc);
    let n_users = snapshot.n_users() as u32;
    report_loop_probe(r, t, if a.smoke { 0.2 } else { 1.5 }, || {
        svc.try_recommend(rng.gen_range(0..n_users), K).is_ok()
    });
}
