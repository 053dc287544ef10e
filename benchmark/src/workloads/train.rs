//! `train_gbgcn` — the paper's Table III/IV path: generate a Beibei-like
//! corpus, leave-one-out split, one `fit_parallel`, NDCG@10, then single
//! fine-tune epochs timed from outside. The operation is one fine-tune
//! epoch.

use super::{report_loop, set_median, set_op_stats, threads_for, Samples};
use crate::report::Report;
use crate::stats;
use crate::trace::Tracer;
use gb_autograd::{Adam, AdamConfig, Gradients, ParamStore, Sgd, ShardExecutor, Tape};
use gb_core::batch::LossBatch;
use gb_core::propagation::{propagate, PropParams};
use gb_core::{GbgcnConfig, GbgcnModel, ParallelTrainConfig};
use gb_data::split::{leave_one_out, Split};
use gb_data::synth::{generate, SynthConfig};
use gb_data::{Dataset, NegativeSampler};
use gb_eval::timing::timed;
use gb_eval::EvalProtocol;
use gb_models::common::shuffled_batches;
use gb_tensor::kernels;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// NDCG@10 a fitted model must reach for the run to count as correct.
const NDCG_FLOOR: f64 = 0.15;

/// `(pre-train, fine-tune)` epochs of the one timed fit. Half the
/// paper's 20 + 20: the whole set of runs has to fit the driver's time
/// budget, and NDCG@10 is already on its plateau here.
fn fit_epochs(smoke: bool) -> (usize, usize) {
    if smoke {
        (2, 2)
    } else {
        (10, 10)
    }
}

fn par() -> ParallelTrainConfig {
    ParallelTrainConfig {
        n_shards: 4,
        n_threads: threads_for(4),
        refresh_every: 0,
    }
}

fn config(seed: u64, pretrain: usize, finetune: usize) -> GbgcnConfig {
    GbgcnConfig {
        pretrain_epochs: pretrain,
        finetune_epochs: finetune,
        seed,
        ..GbgcnConfig::default()
    }
}

fn corpus(seed: u64) -> Split {
    let data = generate(&SynthConfig::beibei_like().with_seed(seed));
    leave_one_out(&data, seed)
}

fn ndcg_at_10(model: &GbgcnModel, split: &Split) -> f64 {
    let sampler = NegativeSampler::from_dataset(&split.train);
    EvalProtocol::paper()
        .evaluate(model, &split.test, &sampler, split.train.n_items())
        .ndcg_at(10)
}

pub fn run(r: &mut Report) {
    let a = r.args.clone();
    let (pre, fine) = fit_epochs(a.smoke);
    let par = par();
    let ((split, mut model), setup_s, reps) = super::repeat_setup(a.smoke, || {
        let split = corpus(a.seed);
        let model = GbgcnModel::new(config(a.seed, pre, fine), &split.train);
        (split, model)
    });
    r.set("setup_s", setup_s, reps);
    let n_train = split.train.behaviors().len();

    let (fit, fit_s) = timed(|| model.fit_parallel(&split.train, &par, None));
    r.phase(
        &format!(
            "fit_parallel: {:.1} behaviors/s",
            (n_train * (pre + fine)) as f64 / fit_s
        ),
        fit_s,
        pre + fine,
    );
    r.check("fit loss is finite", fit.final_loss.is_finite());

    let ndcg = ndcg_at_10(&model, &split);
    r.set("quality_at_10", ndcg, split.test.len());
    r.check(
        format!("ndcg_at_10 {ndcg:.4} is finite and at least {NDCG_FLOOR}"),
        ndcg.is_finite() && ndcg >= NDCG_FLOOR || a.smoke,
    );

    // Single fine-tune epochs, each timed from outside.
    let min_epochs = if a.smoke { 2 } else { 8 };
    let forwards_before = model.propagation_forward_count();
    let mut epochs = Samples::default();
    let start = Instant::now();
    while epochs.n() < min_epochs || start.elapsed().as_secs_f64() < a.seconds {
        let t = Instant::now();
        let secs = model.measure_epoch_secs_parallel(1, &par);
        epochs.push(t, Instant::now(), secs.is_finite());
    }
    epochs.wall_s = start.elapsed().as_secs_f64();
    let forwards = model.propagation_forward_count() - forwards_before;
    let batches = n_train.div_ceil(model.config().batch_size) * epochs.n();
    r.check(
        format!("one propagation forward per batch ({forwards} forwards, {batches} batches)"),
        forwards == batches as u64,
    );
    report_loop(
        r,
        "behaviors, fine-tune epochs",
        &epochs,
        n_train as f64,
        50.0,
    );
    r.attempted += (pre + fine) as u64;
    r.failed += u64::from(!fit.final_loss.is_finite());
    r.set("peak_rss_mb", crate::host::peak_rss_mb(), 1);
}

/// Spans around the training layers on a benchmark-owned parameter
/// store over `train`'s graphs: batch assembly, the propagation forward
/// and its backward, both optimiser steps, shard dispatch, and the two
/// kernels at the workload's own shapes. One op per batch; at most
/// `max_batches` batches of one shuffled epoch.
pub fn layer_probes(
    t: &mut Tracer,
    train: &Dataset,
    cfg: &GbgcnConfig,
    n_threads: usize,
    max_batches: usize,
    first_op: u64,
) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut store = ParamStore::new();
    let params = PropParams::init(&mut store, cfg, train.n_users(), train.n_items(), &mut rng);
    let (graphs, _) = t.span("graph.build_hetero", first_op, None, || {
        train.build_hetero()
    });
    let sampler = NegativeSampler::from_dataset(train);
    let sgd = Sgd::new(cfg.finetune_lr).with_clip_norm(10.0);
    let mut adam = Adam::new(AdamConfig::with_lr(cfg.pretrain_lr), &store);
    let executor = ShardExecutor::new(n_threads);
    let n_params = store.len();
    let (offsets, members) = graphs.initiator.user_to_item().segments();
    let wide = (cfg.n_layers + 1) * cfg.dim;
    let wide_users = gb_tensor::Matrix::zeros(train.n_users(), wide);

    let batches = shuffled_batches(train.behaviors().len(), cfg.batch_size, &mut rng);
    for (i, idx) in batches.iter().take(max_batches).enumerate() {
        let op = first_op + 1 + i as u64;
        let start = Instant::now();
        t.span("data.batch_build", op, None, || {
            std::hint::black_box(LossBatch::build(
                train,
                idx,
                cfg.neg_ratio,
                &sampler,
                &mut rng,
            ))
        });
        let mut tape = Tape::new();
        let (views, _) = t.span("core.propagate_forward", op, None, || {
            propagate(&store, &params, &mut tape, &graphs, cfg)
        });
        let (grads, _) = t.span("autograd.propagate_backward", op, None, || {
            let mut loss = tape.sum_sq(views.u_hat_i);
            for v in [views.v_hat_i, views.u_hat_p, views.v_hat_p] {
                let term = tape.sum_sq(v);
                loss = tape.add(loss, term);
            }
            tape.backward(loss, &store)
        });
        t.span("autograd.sgd_step", op, None, || {
            sgd.step(&mut store, &grads)
        });
        t.span("autograd.adam_step", op, None, || {
            adam.step(&mut store, &grads)
        });
        t.span("autograd.dispatch", op, None, || {
            executor.accumulate(n_params, 4, |_| (0.0, Gradients::empty(n_params)))
        });
        t.span("tensor.matmul", op, None, || {
            std::hint::black_box(kernels::matmul(&wide_users, store.value(params.w_vi_ui)))
        });
        t.span("tensor.segment_mean", op, None, || {
            std::hint::black_box(kernels::segment_mean(
                store.value(params.item_raw),
                offsets,
                members,
            ))
        });
        t.record("train.batch", op, None, start, Instant::now());
    }
}

/// Reports the spans [`layer_probes`] recorded as per-layer medians.
pub fn report_layer_probes(t: &Tracer, r: &mut Report) {
    set_median(
        r,
        "graph.build_hetero_ms",
        &t.durations_ms("graph.build_hetero"),
    );
    set_median(
        r,
        "data.batch_build_us",
        &t.durations_us("data.batch_build"),
    );
    set_median(
        r,
        "core.propagate_forward_ms",
        &t.durations_ms("core.propagate_forward"),
    );
    set_median(
        r,
        "autograd.propagate_backward_ms",
        &t.durations_ms("autograd.propagate_backward"),
    );
    set_median(
        r,
        "autograd.sgd_step_us",
        &t.durations_us("autograd.sgd_step"),
    );
    set_median(
        r,
        "autograd.adam_step_us",
        &t.durations_us("autograd.adam_step"),
    );
    set_median(
        r,
        "autograd.dispatch_us_per_batch",
        &t.durations_us("autograd.dispatch"),
    );
    set_median(r, "tensor.matmul_us", &t.durations_us("tensor.matmul"));
    set_median(
        r,
        "tensor.segment_mean_us",
        &t.durations_us("tensor.segment_mean"),
    );
}

pub fn trace(r: &mut Report, t: &mut Tracer) {
    let a = r.args.clone();
    let par = par();
    let (data, _) = t.span("data.generate", 0, None, || {
        generate(&SynthConfig::beibei_like().with_seed(a.seed))
    });
    let split = leave_one_out(&data, a.seed);
    layer_probes(t, &split.train, &config(a.seed, 0, 0), par.n_threads, 16, 0);
    report_layer_probes(t, r);
    set_median(
        r,
        "data.generate_s",
        &[t.durations_us("data.generate")[0] / 1e6],
    );

    // The model's own phases, by timed calls and getters.
    let fit = |pre: usize, fine: usize| {
        let mut model = GbgcnModel::new(config(a.seed, pre, fine), &split.train);
        let (rep, secs) = timed(|| model.fit_parallel(&split.train, &par, None));
        (model, rep, secs)
    };
    let (_, _, finalize_s) = fit(0, 0);
    r.set("core.finalize_ms", finalize_s * 1e3, 1);
    let (_, _, one_pretrain_s) = fit(1, 0);
    r.set(
        "core.pretrain_epoch_s",
        (one_pretrain_s - finalize_s).max(0.0),
        1,
    );
    let (mut model, rep, _) = fit(2, 2);
    r.set("core.final_loss", f64::from(rep.final_loss), 1);
    let (ndcg, eval_s) = timed(|| ndcg_at_10(&model, &split));
    r.set(
        "eval.evaluate_users_per_s",
        split.test.len() as f64 / eval_s,
        split.test.len(),
    );
    r.check("traced ndcg is finite", ndcg.is_finite());

    let n_epochs = if a.smoke { 2 } else { 5 };
    let forwards_before = model.propagation_forward_count();
    let mut epoch_s = Vec::new();
    for i in 0..n_epochs {
        let (_, id) = t.span("core.finetune_epoch", 100 + i as u64, None, || {
            model.measure_epoch_secs_parallel(1, &par)
        });
        epoch_s.push(t.duration_ns(id) as f64 / 1e9);
    }
    let forwards = model.propagation_forward_count() - forwards_before;
    let batches = split
        .train
        .behaviors()
        .len()
        .div_ceil(model.config().batch_size)
        * n_epochs;
    let epoch_us: Vec<f64> = epoch_s.iter().map(|s| s * 1e6).collect();
    set_op_stats(r, &epoch_us, split.train.behaviors().len() as f64, 50.0);
    r.set(
        "core.finetune_epoch_p50_s",
        stats::median(&epoch_s),
        n_epochs,
    );
    r.set(
        "core.propagations_per_batch",
        forwards as f64 / batches as f64,
        batches,
    );
    r.check(
        "one propagation forward per batch",
        forwards == batches as u64,
    );
    r.attempted += (n_epochs + 5) as u64;
}
