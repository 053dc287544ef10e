//! `batch_precompute` — a campaign job precomputes launch lists for
//! every user: the same engine and snapshot as `serve_exact`, used the
//! other way — `try_recommend_batch` over consecutive 8-user chunks on
//! one thread, no service. The operation is one 8-user chunk.

use super::exact::{build, check_bitwise, kernel_pass, report_kernel_work, K};
use super::{closed_loop, report_loop, set_median, set_op_stats};
use crate::report::Report;
use crate::trace::Tracer;
use gb_models::EmbeddingSnapshot;
use gb_tensor::kernels;

/// Users per chunk — the engine's default `user_block`.
const CHUNK: usize = 8;

/// Consecutive `CHUNK`-user blocks sweeping the universe, wrapping.
struct Sweep {
    next: u32,
    n_users: u32,
}

impl Sweep {
    fn chunk(&mut self) -> Vec<u32> {
        let users = (0..CHUNK as u32)
            .map(|i| (self.next + i) % self.n_users)
            .collect();
        self.next = (self.next + CHUNK as u32) % self.n_users;
        users
    }
}

pub fn run(r: &mut Report) {
    let a = r.args.clone();
    let (e, setup_s, reps) = super::repeat_setup(a.smoke, || build(a.seed, a.smoke, None));
    r.set("setup_s", setup_s, reps);
    let mut sweep = Sweep {
        next: 0,
        n_users: e.snapshot.n_users() as u32,
    };
    let mut chunk = || e.engine.try_recommend_batch(&sweep.chunk(), K).is_ok();
    closed_loop(if a.smoke { 0.2 } else { 2.0 }, &mut chunk);
    let s = closed_loop(a.seconds, &mut chunk);
    report_loop(r, "users, 1 thread, no service", &s, CHUNK as f64, 90.0);

    // The checked users, answered through the batched path in chunks.
    let users: Vec<u32> = e.checked.iter().map(|c| c.0).collect();
    let mut lists = Vec::new();
    for block in users.chunks(CHUNK) {
        match e.engine.try_recommend_batch(block, K) {
            Ok((_, got)) => lists.extend(got.into_iter().map(Some)),
            Err(_) => lists.extend(block.iter().map(|_| None)),
        }
    }
    let mut lists = lists.into_iter();
    let quality = check_bitwise(r, &e.snapshot, &e.checked, |_| lists.next().flatten());
    r.set("quality_at_10", quality, e.checked.len());
    r.set("peak_rss_mb", crate::host::peak_rss_mb(), 1);
}

/// One catalogue pass for a chunk of users straight through the
/// multi-user kernel, in the engine's 512-item blocks.
fn kernel_pass_multi(snapshot: &EmbeddingSnapshot, users: &[u32], scores: &mut [f32]) {
    let owns: Vec<&[f32]> = users
        .iter()
        .map(|&u| snapshot.user_own().row(u as usize))
        .collect();
    let socials: Vec<&[f32]> = users
        .iter()
        .map(|&u| snapshot.user_social().row(u as usize))
        .collect();
    let block = scores.len() / users.len();
    let n_items = snapshot.n_items();
    let mut start = 0;
    while start < n_items {
        let len = block.min(n_items - start);
        kernels::blend_dot_block_multi(
            &owns,
            snapshot.item_own(),
            &socials,
            snapshot.item_social(),
            snapshot.alpha(),
            start,
            len,
            &mut scores[..users.len() * len],
        );
        start += len;
    }
    std::hint::black_box(scores);
}

pub fn trace(r: &mut Report, t: &mut Tracer) {
    let a = r.args.clone();
    let e = build(a.seed, a.smoke, Some(t));
    let mut sweep = Sweep {
        next: 0,
        n_users: e.snapshot.n_users() as u32,
    };
    // Each sampled chunk: the batched engine call, the multi-user kernel
    // pass under it, then the same users as single engine queries with
    // their single-user kernel passes — the two uses of one layer, side
    // by side.
    let n_ops = if a.smoke { 10 } else { 100 };
    let mut multi = vec![0.0f32; CHUNK * 512];
    let mut single = vec![0.0f32; 512];
    for op in 0..n_ops {
        let users = sweep.chunk();
        let (ok, batch) = t.span("serve.engine.batch8", op, None, || {
            e.engine.try_recommend_batch(&users, K).is_ok()
        });
        t.span("tensor.blend_dot_block_multi", op, Some(batch), || {
            kernel_pass_multi(&e.snapshot, &users, &mut multi)
        });
        for &user in &users {
            let (_, query) = t.span("serve.engine", op, None, || {
                e.engine.try_recommend(user, K).is_ok()
            });
            t.span("tensor.blend_dot_block", op, Some(query), || {
                kernel_pass(&e.snapshot, user, &mut single)
            });
        }
        r.attempted += 1;
        r.failed += u64::from(!ok);
    }
    let per_user = |name: &str| -> Vec<f64> {
        t.durations_us(name)
            .iter()
            .map(|us| us / CHUNK as f64)
            .collect()
    };
    set_op_stats(
        r,
        &t.durations_us("serve.engine.batch8"),
        CHUNK as f64,
        90.0,
    );
    set_median(
        r,
        "serve.engine.batch8_us_per_user",
        &per_user("serve.engine.batch8"),
    );
    set_median(
        r,
        "tensor.blend_dot_block_multi_us_per_user",
        &per_user("tensor.blend_dot_block_multi"),
    );
    set_median(r, "serve.engine.query_us", &t.durations_us("serve.engine"));
    set_median(r, "serve.engine.self_us", &t.self_us("serve.engine"));
    set_median(
        r,
        "tensor.blend_dot_block_us",
        &t.durations_us("tensor.blend_dot_block"),
    );
    report_kernel_work(r, &e.snapshot, CHUNK);
    check_bitwise(r, &e.snapshot, &e.checked, |u| {
        e.engine.try_recommend(u, K).ok()
    });
}
