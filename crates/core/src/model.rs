//! The trainable GBGCN model: double-pairwise loss, pre-train →
//! fine-tune pipeline, and post-training scoring.

use crate::batch::LossBatch;
use crate::config::{GbgcnConfig, ParallelTrainConfig};
use crate::propagation::{propagate, PropParams, ViewEmbeddings};
use gb_autograd::{Adam, AdamConfig, Gradients, ParamStore, Sgd, ShardExecutor, Tape, Var};
use gb_data::{Dataset, NegativeSampler};
use gb_eval::Scorer;
use gb_graph::{Csr, HeteroGraphs};
use gb_models::common::shuffled_batches;
use gb_models::{EmbeddingSnapshot, Recommender, SnapshotHandle, SnapshotSource, TrainReport};
use gb_tensor::{kernels, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// The four Eq. 8 tables of one forward pass and Eq. 9's friend mean,
/// `Arc`-shared off the tape that computed them. Capturing them copies
/// nothing, which is what lets `finalize` cache the full pass for scoring,
/// export and `embedding_analysis`: each hat table holds its view's Eq. 3
/// in-view embeddings in its first `(L+1)d` columns and the cross-view
/// ones of Eqs. 4–7 in the rest.
struct PropagatedTables {
    u_hat_i: Arc<Matrix>,
    u_hat_p: Arc<Matrix>,
    v_hat_i: Arc<Matrix>,
    v_hat_p: Arc<Matrix>,
    /// Per-user mean of friends' participant-view embeddings — Eq. 9's
    /// social term precomputed by linearity of the dot product.
    friend_mean_p: Arc<Matrix>,
}

impl PropagatedTables {
    fn capture(tape: &Tape, ve: &ViewEmbeddings, friend_mean_p: Var) -> Self {
        let whole = |v: Var| {
            let (table, cols) = tape.arc_window(v);
            // invariant: `propagate` writes each hat into a table of its
            // own, and the friend mean is a `segment_mean`'s fresh table.
            assert_eq!(cols, 0..table.cols(), "a captured table is a whole table");
            table
        };
        Self {
            u_hat_i: whole(ve.u_hat_i),
            u_hat_p: whole(ve.u_hat_p),
            v_hat_i: whole(ve.v_hat_i),
            v_hat_p: whole(ve.v_hat_p),
            friend_mean_p: whole(friend_mean_p),
        }
    }

    fn to_analysis(&self) -> EmbeddingAnalysis {
        let half = |m: &Matrix, second: bool| {
            let dd = m.cols() / 2;
            kernels::slice_cols(m, if second { dd } else { 0 }, dd)
        };
        EmbeddingAnalysis {
            u_inview_i: half(&self.u_hat_i, false),
            u_inview_p: half(&self.u_hat_p, false),
            v_inview_i: half(&self.v_hat_i, false),
            v_inview_p: half(&self.v_hat_p, false),
            u_cross_i: half(&self.u_hat_i, true),
            u_cross_p: half(&self.u_hat_p, true),
            v_cross_i: half(&self.v_hat_i, true),
            v_cross_p: half(&self.v_hat_p, true),
            u_hat_i: (*self.u_hat_i).clone(),
            u_hat_p: (*self.u_hat_p).clone(),
            v_hat_i: (*self.v_hat_i).clone(),
            v_hat_p: (*self.v_hat_p).clone(),
        }
    }
}

/// The eight embedding matrices the Fig. 5 / Fig. 6 analyses inspect.
pub struct EmbeddingAnalysis {
    /// In-view user embeddings, initiator view (`u{0}_i`).
    pub u_inview_i: Matrix,
    /// In-view user embeddings, participant view (`u{0}_p`).
    pub u_inview_p: Matrix,
    /// In-view item embeddings, initiator view.
    pub v_inview_i: Matrix,
    /// In-view item embeddings, participant view.
    pub v_inview_p: Matrix,
    /// Cross-view user embeddings, initiator view (`u{1}_i`).
    pub u_cross_i: Matrix,
    /// Cross-view user embeddings, participant view (`u{1}_p`).
    pub u_cross_p: Matrix,
    /// Cross-view item embeddings, initiator view.
    pub v_cross_i: Matrix,
    /// Cross-view item embeddings, participant view.
    pub v_cross_p: Matrix,
    /// Final user embeddings per view (Eq. 8), for the t-SNE plot.
    pub u_hat_i: Matrix,
    /// Final participant-view user embeddings.
    pub u_hat_p: Matrix,
    /// Final initiator-view item embeddings.
    pub v_hat_i: Matrix,
    /// Final participant-view item embeddings.
    pub v_hat_p: Matrix,
}

/// The GBGCN model bound to a training dataset's graphs.
pub struct GbgcnModel {
    cfg: GbgcnConfig,
    store: ParamStore,
    params: PropParams,
    graphs: HeteroGraphs,
    social: Csr,
    /// The construction-time training set, which
    /// [`GbgcnModel::measure_epoch_secs_parallel`] draws its batches from.
    dataset: Arc<Dataset>,
    /// The tables scoring, export and analysis read, cached by `finalize`.
    finals: Option<PropagatedTables>,
    /// The fine-tune shared forward [`GbgcnModel::finalize`] recorded, kept
    /// for the next fine-tuning step to take: propagation is a function of
    /// the parameters alone, so until one of them changes that step's own
    /// forward would recompute these tables bit for bit. Behind a mutex
    /// only because a `Tape` is `Send` but not `Sync`, and the shard
    /// closures borrow the model across the shard threads.
    retained: Mutex<Option<RetainedForward>>,
    /// Counts full GBGCN propagation forward passes — observability for
    /// the shared-forward contract (`sharded_grad` runs `propagate`
    /// at most once per batch regardless of shard count).
    propagate_calls: AtomicU64,
}

/// Tape vars of the propagated tables Eq. 9 reads — a shard tape's
/// `input` leaves.
struct ScoreTables {
    u_hat_i: Var,
    v_hat_i: Var,
    v_hat_p: Var,
    friend_mean: Var,
}

/// Which id space indexes the rows of a shared table.
#[derive(Clone, Copy, PartialEq, Eq)]
enum RowIds {
    Users,
    Items,
}

/// One shared forward pass per training batch: the propagated tables
/// every shard reads, recorded once on the calling thread. Each shard
/// binds its rows of them positionally as `input` leaves (slot order of
/// `vars`) and returns cotangents w.r.t. those rows, which seed one
/// backward sweep over `tape`.
struct SharedForward {
    tape: Tape,
    /// Vars of the shared tables on `tape`, in fixed slot order.
    vars: Vec<(Var, RowIds)>,
}

/// A fine-tune [`SharedForward`] and the [`ParamStore::generation`] its
/// tables were computed at: valid exactly while the store still reports
/// that generation.
struct RetainedForward {
    fwd: SharedForward,
    generation: u64,
}

/// The rows the regularization terms of [`GbgcnModel::assemble_loss`]
/// read for one (sub-)batch.
struct RegRows {
    /// Sorted distinct global ids of its users and items — the rows of the
    /// raw-embedding *parameters* the L2 terms gather.
    users: Arc<Vec<u32>>,
    items: Arc<Vec<u32>>,
    /// Rows of `users` in the `user_raw` / raw-friend-mean tables the
    /// social term reads: `0..n` for a shard's compact tables (`users`
    /// itself for the full tables the test oracles bind).
    user_rows: Arc<Vec<u32>>,
}

/// Everything one shard's private tape reads: its pairs, and the shared
/// tables they index.
struct ShardInputs {
    /// The shard's pairs; the index vectors address rows of `tables`.
    batch: LossBatch,
    reg: RegRows,
    /// The shared tables in [`GbgcnModel::shared_forward`] slot order,
    /// bound as `input` leaves.
    tables: Vec<Arc<Matrix>>,
}

/// What one run of [`GbgcnModel::train`] reads besides the model: the
/// batch source and the RNG stream that shuffles it and samples its
/// negatives, and the shard decomposition the gradients run under.
struct TrainRun<'a> {
    train: &'a Dataset,
    sampler: NegativeSampler,
    rng: StdRng,
    executor: ShardExecutor,
    n_shards: usize,
}

/// Scores the four pair lists of `batch` through `score(users, items)` in
/// the fixed recording order forward-observed, forward-negative,
/// reversed-higher, reversed-lower (the reversed pair only when the batch
/// has any), as [`GbgcnModel::assemble_loss`] takes them.
fn score_pairs(
    batch: &LossBatch,
    mut score: impl FnMut(Arc<Vec<u32>>, Arc<Vec<u32>>) -> Var,
) -> (Var, Var, Option<(Var, Var)>) {
    let fwd_pos = score(batch.fwd_users.clone(), batch.fwd_pos.clone());
    let fwd_neg = score(batch.fwd_users.clone(), batch.fwd_neg.clone());
    let rev = (!batch.rev_users.is_empty()).then(|| {
        let rev_pos = score(batch.rev_users.clone(), batch.rev_pos.clone());
        let rev_neg = score(batch.rev_users.clone(), batch.rev_neg.clone());
        (rev_pos, rev_neg)
    });
    (fwd_pos, fwd_neg, rev)
}

impl GbgcnModel {
    /// Creates an untrained model over `train`'s behavioral graphs.
    pub fn new(cfg: GbgcnConfig, train: &Dataset) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        let params = PropParams::init(&mut store, &cfg, train.n_users(), train.n_items(), &mut rng);
        let graphs = train.build_hetero();
        let social = train.social().csr().clone();
        Self {
            cfg,
            store,
            params,
            graphs,
            social,
            dataset: Arc::new(train.clone()),
            finals: None,
            retained: Mutex::new(None),
            propagate_calls: AtomicU64::new(0),
        }
    }

    /// Number of full propagation forward passes *run* so far (tests and
    /// `gbbench` assert the shared-forward once-per-batch contract on it).
    /// A fine-tuning step that reuses the forward `finalize` recorded runs
    /// none.
    pub fn propagation_forward_count(&self) -> u64 {
        self.propagate_calls.load(Ordering::Relaxed)
    }

    /// The one gateway to [`propagate`]: every forward pass is counted,
    /// so [`GbgcnModel::propagation_forward_count`] is trustworthy.
    fn propagate_counted(&self, tape: &mut Tape) -> ViewEmbeddings {
        self.propagate_calls.fetch_add(1, Ordering::Relaxed);
        propagate(&self.store, &self.params, tape, &self.graphs, &self.cfg)
    }

    /// The active configuration.
    pub fn config(&self) -> &GbgcnConfig {
        &self.cfg
    }

    /// Number of scalar parameters.
    pub fn n_parameters(&self) -> usize {
        self.store.scalar_count()
    }

    /// Eq. 9 on the tape for aligned `(user, item)` index lists: both
    /// dots read straight off the four tables ([`Tape::gather_dot`]).
    fn tape_scores(
        &self,
        tape: &mut Tape,
        t: &ScoreTables,
        users: Arc<Vec<u32>>,
        items: Arc<Vec<u32>>,
    ) -> Var {
        let own = tape.gather_dot(t.u_hat_i, users.clone(), t.v_hat_i, items.clone());
        let social = tape.gather_dot(t.friend_mean, users, t.v_hat_p, items);
        let own_w = tape.scale(own, 1.0 - self.cfg.alpha);
        let social_w = tape.scale(social, self.cfg.alpha);
        tape.add(own_w, social_w)
    }

    /// Pre-training scores: the "extremely simplified version of GBGCN
    /// that removes all propagation layers" (Sec. III-C.3) — Eq. 9 on the
    /// raw embeddings. The one item gather feeds both dots, so this stays
    /// `gather` + `rowwise_dot`: two `gather_dot`s would scatter the item
    /// cotangent in two passes and re-associate its sum.
    fn pretrain_scores(
        &self,
        tape: &mut Tape,
        u_raw: Var,
        friend_mean: Var,
        users: Arc<Vec<u32>>,
        items: Arc<Vec<u32>>,
    ) -> Var {
        let ue = tape.gather(u_raw, users.clone());
        let ie = tape.gather_param(&self.store, self.params.item_raw, items.clone());
        let fm = tape.gather(friend_mean, users);
        let own = tape.rowwise_dot(ue, ie);
        let social = tape.rowwise_dot(fm, ie);
        let own_w = tape.scale(own, 1.0 - self.cfg.alpha);
        let social_w = tape.scale(social, self.cfg.alpha);
        tape.add(own_w, social_w)
    }

    /// Assembles the double-pairwise loss (Eqs. 10–12) from scored pairs
    /// over `n_behaviors` behaviors, then adds L2 and social regularization
    /// on the raw embeddings at `reg`'s rows.
    ///
    /// `social_vars` are the `(user_raw, raw_friend_mean)` tables on the
    /// tape (shard tapes pass their `input` leaves), `Some` exactly when
    /// social regularization is on.
    fn assemble_loss(
        &self,
        tape: &mut Tape,
        n_behaviors: usize,
        (fwd_pos, fwd_neg, rev): (Var, Var, Option<(Var, Var)>),
        reg: &RegRows,
        social_vars: Option<(Var, Var)>,
    ) -> Var {
        let diff = tape.sub(fwd_pos, fwd_neg);
        let ls = tape.log_sigmoid(diff);
        let fwd_sum = tape.sum_all(ls);
        let mut total = tape.scale(fwd_sum, -1.0);
        if let Some((rev_pos, rev_neg)) = rev {
            let rdiff = tape.sub(rev_pos, rev_neg);
            let rls = tape.log_sigmoid(rdiff);
            let rsum = tape.sum_all(rls);
            let weighted = tape.scale(rsum, -self.cfg.beta);
            total = tape.add(total, weighted);
        }
        let norm = tape.scale(total, 1.0 / n_behaviors.max(1) as f32);

        // L2 on touched raw embeddings.
        let ue = tape.gather_param(&self.store, self.params.user_raw, reg.users.clone());
        let vee = tape.gather_param(&self.store, self.params.item_raw, reg.items.clone());
        let l2u = tape.sum_sq(ue);
        let l2v = tape.sum_sq(vee);
        let l2 = tape.add(l2u, l2v);
        let l2 = tape.scale(l2, self.cfg.l2 / n_behaviors.max(1) as f32);
        let mut loss = tape.add(norm, l2);

        // Social regularization [1] on raw user embeddings.
        if let Some((u_full, fm_raw)) = social_vars {
            let ub = tape.gather(u_full, reg.user_rows.clone());
            let fmb = tape.gather(fm_raw, reg.user_rows.clone());
            let gap = tape.sub(ub, fmb);
            let sq = tape.sum_sq(gap);
            let reg = tape.scale(sq, self.cfg.social_reg / n_behaviors.max(1) as f32);
            loss = tape.add(loss, reg);
        }
        loss
    }

    /// Records the per-batch shared forward pass: one propagation (or
    /// one raw-table read for pre-training) computed on the calling
    /// thread, whose tables every shard consumes read-only.
    ///
    /// Fixed slot order — fine-tuning: `[u_hat_i, v_hat_i, v_hat_p,
    /// friend_mean]` plus `[user_raw, raw_friend_mean]` when social
    /// regularization is active; pre-training: `[user_raw,
    /// raw_friend_mean]` (the raw friend mean doubles as the social-reg
    /// term's segment mean — it is the same computation). Every slot is a
    /// node of its own, so no two slots share a cotangent accumulator.
    fn shared_forward(&self, finetune: bool) -> SharedForward {
        if finetune {
            return self.finetune_forward().0;
        }
        let mut tape = Tape::new();
        let u_raw = tape.param(&self.store, self.params.user_raw);
        let friend_mean = tape.segment_mean(u_raw, self.social.offsets(), self.social.members());
        SharedForward {
            tape,
            vars: vec![(u_raw, RowIds::Users), (friend_mean, RowIds::Users)],
        }
    }

    /// The fine-tuning [`GbgcnModel::shared_forward`], together with the
    /// nodes of all twelve propagated tables on its tape.
    fn finetune_forward(&self) -> (SharedForward, ViewEmbeddings) {
        use RowIds::{Items, Users};
        let mut tape = Tape::new();
        let ve = self.propagate_counted(&mut tape);
        let friend_mean =
            tape.segment_mean(ve.u_hat_p, self.social.offsets(), self.social.members());
        let mut vars = vec![
            (ve.u_hat_i, Users),
            (ve.v_hat_i, Items),
            (ve.v_hat_p, Items),
            (friend_mean, Users),
        ];
        if self.cfg.social_reg > 0.0 {
            let u_full = tape.param(&self.store, self.params.user_raw);
            let fm_raw = tape.segment_mean(u_full, self.social.offsets(), self.social.members());
            vars.extend([(u_full, Users), (fm_raw, Users)]);
        }
        (SharedForward { tape, vars }, ve)
    }

    /// Takes the forward [`GbgcnModel::finalize`] retained, if the
    /// parameters are still bit for bit the ones it was recorded from (no
    /// [`ParamStore::value_mut`] since); a stale one is dropped.
    fn take_retained(&self) -> Option<SharedForward> {
        // The guard only ever covers an `Option` take or store, which leave
        // the slot valid at every step, so a poisoned lock is recovered.
        let kept = self
            .retained
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()?;
        (kept.generation == self.store.generation()).then_some(kept.fwd)
    }

    /// Splits `batch` into its `n_shards` shards and gives each its
    /// *compact* tables — its rows of every shared table, at its sorted
    /// distinct users (or items) — and its pairs renumbered to those rows,
    /// together with one [`Tape::gather_unheld`] node per table in slot
    /// order. The shard's table cotangents are then `n_distinct x w`, seed
    /// those gather nodes directly, and the gathers' own scatter-add
    /// backward folds them into the full-size tables: all per-shard work
    /// is `O(batch)`, never a function of the table heights.
    ///
    /// The shared tape lets go of its values first
    /// ([`Tape::release_values`]), and the shared tables are gathered one
    /// at a time, each freed as soon as every shard has its rows of it:
    /// what stays live is the backward closures' operands and the compact
    /// tables, never the forward's every table beside them. Within a
    /// table the gathers are recorded in *reverse* shard order (see
    /// [`GbgcnModel::sharded_grad`]).
    ///
    /// Pre-training shares no item table (its item rows come from the
    /// parameter by `gather_param`), so there the item ids stay global.
    fn compact_shards(
        &self,
        fwd: &mut SharedForward,
        batch: &LossBatch,
        n_shards: usize,
    ) -> Vec<(ShardInputs, Vec<Var>)> {
        let shards = batch.split(n_shards);
        let rows: Vec<_> = shards
            .iter()
            .map(|s| (Arc::new(s.touched_users()), Arc::new(s.touched_items())))
            .collect();
        let shared: Vec<Arc<Matrix>> = fwd
            .vars
            .iter()
            .map(|&(v, _)| fwd.tape.arc_value(v))
            .collect();
        fwd.tape.release_values();
        let mut compact: Vec<(Vec<Arc<Matrix>>, Vec<Var>)> =
            shards.iter().map(|_| (Vec::new(), Vec::new())).collect();
        for (&(v, ids), table) in fwd.vars.iter().zip(shared) {
            for ((tables, gathers), (users, items)) in compact.iter_mut().zip(&rows).rev() {
                let rows = match ids {
                    RowIds::Users => users,
                    RowIds::Items => items,
                };
                tables.push(Arc::new(kernels::gather_rows(&table, rows)));
                gathers.push(fwd.tape.gather_unheld(v, Arc::clone(rows)));
            }
        }
        let shares_items = fwd.vars.iter().any(|&(_, ids)| ids == RowIds::Items);
        shards
            .into_iter()
            .zip(rows)
            .zip(compact)
            .map(|((shard, (users, items)), (tables, gathers))| {
                let inputs = ShardInputs {
                    batch: shard.to_local_rows(&users, shares_items.then_some(&items[..])),
                    reg: RegRows {
                        user_rows: Arc::new((0..users.len() as u32).collect()),
                        users,
                        items,
                    },
                    tables,
                };
                (inputs, gathers)
            })
            .collect()
    }

    /// Consumer side of the shared-forward protocol for one shard: binds
    /// `shard.tables` as `input` leaves (slot order of
    /// [`GbgcnModel::shared_forward`]), scores and assembles the loss on a
    /// private tape, and returns `(loss, param gradients, per-table
    /// cotangents)`. It consumes its inputs, and its tape lets go of its
    /// values before the backward, so its compact tables are freed as the
    /// sweep finishes with them. Pure in `(self, shard)`, so shards may run
    /// on any thread in any order.
    ///
    /// Pre-training's shared tables are `[user_raw, raw_friend_mean]`,
    /// reused by both Eq. 9 scoring and the social-regularization term.
    fn shard_grad(
        &self,
        shard: ShardInputs,
        finetune: bool,
    ) -> (f32, Gradients, Vec<Option<Matrix>>) {
        let mut tape = Tape::new();
        let inputs: Vec<Var> = shard.tables.into_iter().map(|t| tape.input(t)).collect();
        let social_reg = self.cfg.social_reg > 0.0;
        let (scores, social_vars) = if finetune {
            let st = ScoreTables {
                u_hat_i: inputs[0],
                v_hat_i: inputs[1],
                v_hat_p: inputs[2],
                friend_mean: inputs[3],
            };
            let scores = score_pairs(&shard.batch, |users, items| {
                self.tape_scores(&mut tape, &st, users, items)
            });
            (scores, social_reg.then(|| (inputs[4], inputs[5])))
        } else {
            let (u_raw, friend_mean) = (inputs[0], inputs[1]);
            let scores = score_pairs(&shard.batch, |users, items| {
                self.pretrain_scores(&mut tape, u_raw, friend_mean, users, items)
            });
            (scores, social_reg.then_some((u_raw, friend_mean)))
        };
        let n_behaviors = shard.batch.n_behaviors;
        let loss = self.assemble_loss(&mut tape, n_behaviors, scores, &shard.reg, social_vars);
        let value = tape.value(loss).get(0, 0);
        tape.release_values();
        let (grads, table_grads) = tape.backward_with_inputs(loss, &self.store);
        (value, grads, table_grads)
    }

    /// Runs [`GbgcnModel::shard_grad`] over `shards` on `executor`'s
    /// threads; returns the shard-summed loss, the parameter gradients
    /// merged in fixed shard order, and every shard's table cotangents.
    fn run_shards(
        &self,
        shards: Vec<ShardInputs>,
        executor: &ShardExecutor,
        finetune: bool,
    ) -> (f32, Gradients, Vec<Vec<Option<Matrix>>>) {
        let n_shards = shards.len();
        // Each shard closure takes its inputs out of its slot, so they die
        // with the shard's tape instead of outliving every shard.
        let shards: Vec<Mutex<Option<ShardInputs>>> =
            shards.into_iter().map(|s| Mutex::new(Some(s))).collect();
        // Per-shard table-cotangent side channel: `accumulate` merges
        // only `(loss, Gradients)`, so the third output travels through
        // shard-indexed one-shot slots instead.
        let table_grads: Vec<OnceLock<Vec<Option<Matrix>>>> =
            (0..n_shards).map(|_| OnceLock::new()).collect();
        let (loss, grads) = executor.accumulate(self.store.len(), n_shards, |s| {
            // invariant: `accumulate` hands each shard index to exactly one
            // closure call, so its slot is still full; the guard covers an
            // `Option` take, which leaves the slot valid at every step.
            let shard = shards[s]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take()
                .expect("each shard's inputs are taken once");
            let (value, grads, tg) = self.shard_grad(shard, finetune);
            // invariant: `accumulate` hands each shard index to exactly one
            // closure call, so no slot is set twice.
            assert!(
                table_grads[s].set(tg).is_ok(),
                "shard {s} ran twice within one accumulate call"
            );
            (value, grads)
        });
        let table_grads = table_grads
            .into_iter()
            .map(|slot| {
                // invariant: `accumulate` runs every shard closure exactly
                // once before returning (or propagates its panic), so every
                // slot is filled here.
                slot.into_inner()
                    .expect("shard table gradients published before accumulate returned")
            })
            .collect();
        (loss, grads, table_grads)
    }

    /// Shard-summed loss and merged gradient of one mini-batch under the
    /// `cfg.n_shards` decomposition, computed on `executor`'s threads and
    /// reduced in fixed shard order.
    ///
    /// The forward pass through the propagation layers runs **once per
    /// batch** on the calling thread ([`GbgcnModel::shared_forward`]) — or
    /// not at all, when `finalize` has already recorded it from these very
    /// parameters ([`GbgcnModel::take_retained`]);
    /// each shard reads only its own rows of the shared tables
    /// ([`GbgcnModel::compact_shards`]) and its compact cotangents seed its
    /// gather nodes on the shared tape, whose single backward sweep both
    /// reduces them — in ascending shard order — and produces the
    /// propagation gradients. The whole pipeline stays a pure function of
    /// `(self, batch, n_shards)` — thread count never changes a bit.
    ///
    /// What a batch holds at once sets its page faults: the allocator
    /// hands the top of the heap back when a batch frees its tables, and
    /// the next batch faults its whole working set in again. So the shared
    /// tape lets go of its values once the forward is recorded
    /// ([`Tape::release_values`]): a table only the forward read is freed
    /// there, a shared table once the shards have their rows of it, and
    /// one a backward closure reads when the sweep has run that closure.
    /// Each shard drops its compact tables with its tape, and its
    /// parameter gradient keeps only the rows it touched until the
    /// fixed-order merge.
    fn sharded_grad(
        &self,
        batch: &LossBatch,
        n_shards: usize,
        executor: &ShardExecutor,
        finetune: bool,
    ) -> (f32, Gradients) {
        // Empty-batch fast path: a zero-example batch decomposes into
        // zero shards — return immediately instead of spawning shard threads.
        if batch.is_empty() {
            return (0.0, Gradients::empty(self.store.len()));
        }
        let mut fwd = match self.take_retained() {
            Some(retained) if finetune => retained,
            _ => self.shared_forward(finetune),
        };
        // A table's gathers are recorded in *reverse* shard order: the
        // sweep visits nodes in descending order, so it meets shard 0's
        // gather first and scatters `acc[row] += S_k[row]` for k = 0, 1,
        // 2, … — the ascending-shard sum `((S_0 + S_1) + S_2) + …` of every
        // row's cotangent. (Summing only the shards that touch a row, from
        // a zeroed accumulator, equals summing dense per-shard tables whose
        // untouched rows are `+0.0`: a partial sum that starts from `+0.0`
        // is never `-0.0`, so adding `+0.0` to it, or it to `+0.0`,
        // changes no bit.) Different tables' gathers scatter into
        // different accumulators, so how they interleave changes nothing.
        let (shards, gathers): (Vec<_>, Vec<_>) = self
            .compact_shards(&mut fwd, batch, n_shards)
            .into_iter()
            .unzip();
        let (loss, mut grads, table_grads) = self.run_shards(shards, executor, finetune);
        // One propagation backward per batch, seeded at the gather nodes.
        let seeds: Vec<(Var, Matrix)> = gathers
            .into_iter()
            .flatten()
            .zip(table_grads.into_iter().flatten())
            .filter_map(|(v, g)| g.map(|g| (v, g)))
            .collect();
        if !seeds.is_empty() {
            grads.merge(fwd.tape.backward_seeded(seeds, &self.store));
        }
        (loss, grads)
    }

    /// Records the fine-tune shared forward once and caches the four hat
    /// tables and the friend mean (`Arc`-shared off the tape — no copies)
    /// for scoring, export and analysis; `embedding_analysis` reads
    /// this cache instead of re-propagating. The tape itself is retained
    /// with the parameter generation it was recorded at, so a fine-tuning
    /// step that follows with the parameters untouched takes it as its
    /// shared forward instead of propagating again.
    ///
    /// The previous pass's cache and retained tape go first, so the new
    /// pass reuses their memory instead of faulting in its own beside
    /// them; a snapshot exported from the old cache keeps its tables.
    fn finalize(&mut self) {
        self.finals = None;
        self.retain(None);
        let (fwd, ve) = self.finetune_forward();
        // Slot 3 of the fine-tune slot order: `friend_mean`.
        self.finals = Some(PropagatedTables::capture(&fwd.tape, &ve, fwd.vars[3].0));
        self.retain(Some(RetainedForward {
            fwd,
            generation: self.store.generation(),
        }));
    }

    /// Replaces the retained forward (`None` releases it).
    fn retain(&mut self, forward: Option<RetainedForward>) {
        *self
            .retained
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner) = forward;
    }

    /// Extracts the embedding matrices for the Fig. 5 / Fig. 6 analyses.
    ///
    /// Served from the forward pass `finalize` cached when available — the
    /// in-view and cross-view tables are the two column halves of each hat
    /// table; only an unfitted model pays for a fresh propagation here.
    pub fn embedding_analysis(&self) -> EmbeddingAnalysis {
        if let Some(f) = &self.finals {
            return f.to_analysis();
        }
        let (fwd, ve) = self.finetune_forward();
        PropagatedTables::capture(&fwd.tape, &ve, fwd.vars[3].0).to_analysis()
    }

    /// One epoch of either trainer stage: shuffles `run.train` and, per
    /// mini-batch, samples its negatives, takes the sharded gradient and
    /// hands it to `step`. Returns the mean batch loss.
    fn run_epoch(
        &mut self,
        run: &mut TrainRun<'_>,
        finetune: bool,
        mut step: impl FnMut(&mut ParamStore, &Gradients),
    ) -> f32 {
        let n = run.train.behaviors().len();
        let mut loss_sum = 0.0f32;
        let mut n_batches = 0;
        for batch_idx in shuffled_batches(n, self.cfg.batch_size, &mut run.rng) {
            let batch = LossBatch::build(
                run.train,
                &batch_idx,
                self.cfg.neg_ratio,
                &run.sampler,
                &mut run.rng,
            );
            let (loss, grads) = self.sharded_grad(&batch, run.n_shards, &run.executor, finetune);
            step(&mut self.store, &grads);
            loss_sum += loss;
            n_batches += 1;
        }
        loss_sum / n_batches.max(1) as f32
    }

    /// The one training loop (Sec. III-C.3) under every public trainer
    /// entry point: `pretrain_epochs` of Adam on the propagation-free
    /// model followed by row normalization of the raw embeddings, then
    /// `finetune_epochs` of clipped SGD on the full model, with
    /// `after_epoch(self, epoch)` called after each fine-tuning epoch
    /// (inside the timed region). Every mini-batch (negative sampling
    /// included) is assembled on the calling thread from one RNG stream
    /// seeded with `seed`. Leaves finalization to the caller.
    fn train(
        &mut self,
        train: &Dataset,
        par: &ParallelTrainConfig,
        seed: u64,
        (pretrain_epochs, finetune_epochs): (usize, usize),
        mut after_epoch: impl FnMut(&mut Self, usize),
    ) -> TrainReport {
        assert_eq!(
            train.n_users(),
            self.graphs.n_users(),
            "dataset/user mismatch"
        );
        assert_eq!(
            train.n_items(),
            self.graphs.n_items(),
            "dataset/item mismatch"
        );
        let mut run = TrainRun {
            train,
            executor: ShardExecutor::new(par.n_threads),
            n_shards: par.n_shards.max(1),
            rng: StdRng::seed_from_u64(seed),
            sampler: NegativeSampler::from_dataset(train),
        };

        // --- stage 1: Adam pre-training of the simplified model, then
        // normalization of the pre-trained embeddings ---------------------
        if pretrain_epochs > 0 {
            let mut adam = Adam::new(AdamConfig::with_lr(self.cfg.pretrain_lr), &self.store);
            for _ in 0..pretrain_epochs {
                self.run_epoch(&mut run, false, |store, grads| adam.step(store, grads));
            }
            for id in [self.params.user_raw, self.params.item_raw] {
                let normalized = kernels::normalize_rows(self.store.value(id));
                *self.store.value_mut(id) = normalized;
            }
        }

        // --- stage 2: SGD fine-tuning of the full model -------------------
        let sgd = Sgd::new(self.cfg.finetune_lr).with_clip_norm(10.0);
        let mut final_loss = 0.0f32;
        let start = Instant::now();
        for epoch in 0..finetune_epochs {
            final_loss = self.run_epoch(&mut run, true, |store, grads| sgd.step(store, grads));
            after_epoch(self, epoch);
        }
        let elapsed = start.elapsed().as_secs_f64();
        TrainReport {
            epochs: pretrain_epochs + finetune_epochs,
            mean_epoch_secs: elapsed / finetune_epochs.max(1) as f64,
            final_loss,
        }
    }

    /// Fits with validation-based model selection (Sec. IV-A.2: "we save
    /// the model that has the best performance on the validation set").
    ///
    /// The same parameter trajectory as [`Recommender::fit`], but every
    /// `check_every` fine-tuning epochs (and after the last one) NDCG@10
    /// on the validation instances is evaluated and the parameters are
    /// snapshotted when it improves; the best snapshot is restored before
    /// finalization. With no validation instances this is exactly `fit`.
    // lint:allow(pub-needs-caller): Sec. IV-A.2's model selection; ROADMAP item 5 builds the baselines' hook on it
    pub fn fit_with_validation(
        &mut self,
        train: &Dataset,
        validation: &[gb_data::TestInstance],
        check_every: usize,
    ) -> TrainReport {
        use gb_autograd::checkpoint;
        use gb_eval::EvalProtocol;

        let GbgcnConfig {
            seed,
            pretrain_epochs,
            finetune_epochs,
            ..
        } = self.cfg;
        let sampler = NegativeSampler::from_dataset(train);
        let protocol = EvalProtocol::exhaustive();
        let mut best_snapshot = None;
        let mut best_score = f64::NEG_INFINITY;
        let report = self.train(
            train,
            &ParallelTrainConfig::serial(),
            seed,
            (pretrain_epochs, finetune_epochs),
            |model, epoch| {
                let due = epoch % check_every.max(1) == 0 || epoch + 1 == finetune_epochs;
                if validation.is_empty() || !due {
                    return;
                }
                model.finalize();
                let m = protocol.evaluate(model, validation, &sampler, train.n_items());
                let score = m.ndcg_at(10);
                if score > best_score {
                    best_score = score;
                    best_snapshot = Some(checkpoint::snapshot(&model.store));
                }
            },
        );
        if let Some(best) = &best_snapshot {
            checkpoint::restore(&mut self.store, best);
        }
        self.finalize();
        report
    }

    /// Saves the trained parameters as a JSON checkpoint.
    pub fn save_checkpoint<W: std::io::Write>(&self, w: W) -> std::io::Result<()> {
        gb_autograd::checkpoint::save_json(&self.store, w)
    }

    /// Loads parameters from a JSON checkpoint produced by
    /// [`GbgcnModel::save_checkpoint`] (shapes must match this model's
    /// configuration), then refreshes the cached final embeddings.
    pub fn load_checkpoint<R: std::io::Read>(&mut self, r: R) -> std::io::Result<()> {
        gb_autograd::checkpoint::load_json(&mut self.store, r)?;
        self.finalize();
        Ok(())
    }

    /// Mean wall-clock seconds of one fine-tuning epoch (for Table IV);
    /// runs `n` measured epochs without disturbing determinism guarantees
    /// beyond advancing the training state. The one-shard instance of
    /// [`GbgcnModel::measure_epoch_secs_parallel`].
    pub fn measure_epoch_secs(&mut self, n: usize) -> f64 {
        self.measure_epoch_secs_parallel(n, &ParallelTrainConfig::serial())
    }

    /// Sharded-parallel counterpart of [`Recommender::fit`].
    ///
    /// Every mini-batch (negative sampling included) is assembled on the
    /// calling thread from the same RNG stream as the serial path, split
    /// into `par.n_shards` deterministic sub-batches
    /// ([`LossBatch::split`]), and the per-shard gradients — computed on
    /// `par.n_threads` worker threads — are reduced in fixed shard order
    /// before a single optimizer step. Consequences:
    ///
    /// * with `n_shards = 1` the run is bit-identical to
    ///   [`Recommender::fit`];
    /// * for a fixed `n_shards`, every `n_threads` produces bit-identical
    ///   parameters (the property tests assert this);
    /// * `n_shards > 1` changes float summation order (and counts a
    ///   user/item touched by several shards once per shard in the
    ///   regularizers), so it is a different — equally valid — recipe,
    ///   itself reproducible for that shard count.
    ///
    /// When `handle` is given, the trainer re-exports its embeddings
    /// every `par.refresh_every` fine-tuning epochs and publishes them,
    /// so a live `gb-serve` engine hot-swaps to fresh embeddings mid-run
    /// without restart. The finished model is always published: by the
    /// last cadence publish when the cadence lands on the final epoch,
    /// or by one closing export otherwise (including `refresh_every = 0`).
    pub fn fit_parallel(
        &mut self,
        train: &Dataset,
        par: &ParallelTrainConfig,
        handle: Option<&SnapshotHandle>,
    ) -> TrainReport {
        let GbgcnConfig {
            seed,
            pretrain_epochs,
            finetune_epochs,
            ..
        } = self.cfg;
        let report = self.train(
            train,
            par,
            seed,
            (pretrain_epochs, finetune_epochs),
            |model, epoch| {
                if let Some(handle) = handle {
                    if par.refresh_every > 0 && (epoch + 1) % par.refresh_every == 0 {
                        model.finalize();
                        handle.publish(model.export_snapshot());
                    }
                }
            },
        );
        self.finalize();
        if let Some(handle) = handle {
            // Skip the final export when the cadence already published
            // after the last epoch — the tables are identical, and a
            // redundant version would only invalidate the serving cache.
            let cadence_covered_last_epoch = par.refresh_every > 0
                && finetune_epochs > 0
                && finetune_epochs.is_multiple_of(par.refresh_every);
            if !cadence_covered_last_epoch {
                handle.publish(self.export_snapshot());
            }
        }
        report
    }

    /// Parallel counterpart of [`GbgcnModel::measure_epoch_secs`]: mean
    /// wall-clock seconds of one sharded fine-tuning epoch under `par`,
    /// over the construction-time dataset and an RNG stream of its own.
    ///
    /// Starts cold: a forward retained by an earlier `finalize` is
    /// released first, so a measured epoch pays for — and
    /// [`GbgcnModel::propagation_forward_count`] counts — one propagation
    /// per batch, whatever ran before it.
    pub fn measure_epoch_secs_parallel(&mut self, n: usize, par: &ParallelTrainConfig) -> f64 {
        self.retain(None);
        let dataset = Arc::clone(&self.dataset);
        let seed = self.cfg.seed ^ 0xBEEF;
        self.train(&dataset, par, seed, (0, n.max(1)), |_, _| {})
            .mean_epoch_secs
    }
}

impl Recommender for GbgcnModel {
    fn name(&self) -> &str {
        self.cfg.ablation.label()
    }

    /// Pre-trains with Adam, normalizes the raw embeddings, fine-tunes the
    /// full model with vanilla SGD (Sec. III-C.3), then caches finals.
    ///
    /// Definitionally the one-shard, one-thread instance of
    /// [`GbgcnModel::fit_parallel`] — one pipeline, no duplicated loops.
    fn fit(&mut self, train: &Dataset) -> TrainReport {
        self.fit_parallel(train, &ParallelTrainConfig::serial(), None)
    }
}

impl SnapshotSource for GbgcnModel {
    /// Freezes the cached Eq. 8/9 terms — `u_hat_i`, `v_hat_i`,
    /// `friend_mean_p`, `v_hat_p` — exactly as [`Scorer::score_items`]
    /// reads them, so a served snapshot reproduces offline scores
    /// bit-for-bit. The tables are shared, not copied
    /// ([`Matrix::from_arc`]): `finalize` caches them immutable, and the
    /// snapshot keeps them alive past the next `finalize` or the model.
    fn export_snapshot(&self) -> EmbeddingSnapshot {
        // invariant: exporting an unfitted model is a caller programming
        // error — every trainer path finalizes before export, and the
        // should-panic tests pin the message.
        let f = self.finals.as_ref().expect("model not fitted");
        EmbeddingSnapshot::new(
            self.cfg.alpha,
            Matrix::from_arc(Arc::clone(&f.u_hat_i)),
            Matrix::from_arc(Arc::clone(&f.v_hat_i)),
            Matrix::from_arc(Arc::clone(&f.friend_mean_p)),
            Matrix::from_arc(Arc::clone(&f.v_hat_p)),
        )
    }
}

impl Scorer for GbgcnModel {
    /// Eq. 9 via the lane-blocked [`kernels::dot`] — the identical
    /// accumulation order the serving kernel uses, so exported snapshots
    /// score bit-for-bit like this method.
    fn score_items(&self, user: u32, items: &[u32]) -> Vec<f32> {
        // invariant: scoring an unfitted model is a caller programming
        // error — every trainer path finalizes before scoring, and the
        // should-panic tests pin the message.
        let f = self.finals.as_ref().expect("model not fitted");
        let own = f.u_hat_i.row(user as usize);
        let social = f.friend_mean_p.row(user as usize);
        let a = self.cfg.alpha;
        items
            .iter()
            .map(|&i| {
                let o = kernels::dot(own, f.v_hat_i.row(i as usize));
                let s = kernels::dot(social, f.v_hat_p.row(i as usize));
                (1.0 - a) * o + a * s
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AblationMode;
    use gb_data::synth::{generate, SynthConfig};
    use gb_data::GroupBehavior;
    use gb_models::SnapshotDelta;
    use proptest::prelude::*;

    fn tiny_train() -> Dataset {
        generate(&SynthConfig::tiny())
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Everything `batch` touches, read off full tables at global ids.
    fn full_table_rows(batch: &LossBatch) -> RegRows {
        let users = Arc::new(batch.touched_users());
        RegRows {
            user_rows: Arc::clone(&users),
            users,
            items: Arc::new(batch.touched_items()),
        }
    }

    /// The single-tape fine-tuning recipe, kept as the oracle of the
    /// shared-forward decomposition: the whole pass on one batch —
    /// propagation included — recorded on one tape.
    fn finetune_grad(m: &GbgcnModel, batch: &LossBatch) -> (f32, Gradients) {
        let mut tape = Tape::new();
        let ve = m.propagate_counted(&mut tape);
        let friend_mean = tape.segment_mean(ve.u_hat_p, m.social.offsets(), m.social.members());
        let st = ScoreTables {
            u_hat_i: ve.u_hat_i,
            v_hat_i: ve.v_hat_i,
            v_hat_p: ve.v_hat_p,
            friend_mean,
        };
        let scores = score_pairs(batch, |users, items| {
            m.tape_scores(&mut tape, &st, users, items)
        });
        let social_vars = (m.cfg.social_reg > 0.0).then(|| {
            let u_full = tape.param(&m.store, m.params.user_raw);
            let fm_raw = tape.segment_mean(u_full, m.social.offsets(), m.social.members());
            (u_full, fm_raw)
        });
        let reg = full_table_rows(batch);
        let loss = m.assemble_loss(&mut tape, batch.n_behaviors, scores, &reg, social_vars);
        let value = tape.value(loss).get(0, 0);
        (value, tape.backward(loss, &m.store))
    }

    /// Single-tape oracle of the propagation-free pre-training stage.
    fn pretrain_grad(m: &GbgcnModel, batch: &LossBatch) -> (f32, Gradients) {
        let mut tape = Tape::new();
        let u_raw = tape.param(&m.store, m.params.user_raw);
        let friend_mean = tape.segment_mean(u_raw, m.social.offsets(), m.social.members());
        let scores = score_pairs(batch, |users, items| {
            m.pretrain_scores(&mut tape, u_raw, friend_mean, users, items)
        });
        let social_vars = (m.cfg.social_reg > 0.0).then_some((u_raw, friend_mean));
        let reg = full_table_rows(batch);
        let loss = m.assemble_loss(&mut tape, batch.n_behaviors, scores, &reg, social_vars);
        let value = tape.value(loss).get(0, 0);
        (value, tape.backward(loss, &m.store))
    }

    /// The dense-table recipe [`GbgcnModel::sharded_grad`] replaced, kept
    /// as its oracle: every shard binds the *full* shared tables at global
    /// ids and returns full-size cotangents, the calling thread sums them
    /// table by table in ascending shard order, and the sums seed the
    /// shared tape's table nodes themselves.
    fn sharded_grad_dense(
        m: &GbgcnModel,
        batch: &LossBatch,
        n_shards: usize,
        executor: &ShardExecutor,
        finetune: bool,
    ) -> (f32, Gradients) {
        if batch.is_empty() {
            return (0.0, Gradients::empty(m.store.len()));
        }
        let mut fwd = m.shared_forward(finetune);
        let tables: Vec<Arc<Matrix>> = fwd
            .vars
            .iter()
            .map(|&(v, _)| fwd.tape.arc_value(v))
            .collect();
        let shards: Vec<ShardInputs> = batch
            .split(n_shards)
            .into_iter()
            .map(|shard| ShardInputs {
                reg: full_table_rows(&shard),
                batch: shard,
                tables: tables.clone(),
            })
            .collect();
        let (loss, mut grads, table_grads) = m.run_shards(shards, executor, finetune);
        let mut reduced: Vec<Option<Matrix>> = (0..fwd.vars.len()).map(|_| None).collect();
        for shard_grads in table_grads {
            for (acc, g) in reduced.iter_mut().zip(shard_grads) {
                if let Some(g) = g {
                    match acc {
                        Some(a) => kernels::add_assign(a, &g),
                        slot @ None => *slot = Some(g),
                    }
                }
            }
        }
        let seeds: Vec<(Var, Matrix)> = fwd
            .vars
            .iter()
            .zip(reduced)
            .filter_map(|(&(v, _), g)| g.map(|g| (v, g)))
            .collect();
        if !seeds.is_empty() {
            grads.merge(fwd.tape.backward_seeded(seeds, &m.store));
        }
        (loss, grads)
    }

    fn pairs_batch(
        fwd: &[(u32, u32, u32)],
        rev: &[(u32, u32, u32)],
        n_behaviors: usize,
    ) -> LossBatch {
        let col = |pairs: &[(u32, u32, u32)], f: fn(&(u32, u32, u32)) -> u32| {
            Arc::new(pairs.iter().map(f).collect::<Vec<u32>>())
        };
        LossBatch {
            fwd_users: col(fwd, |p| p.0),
            fwd_pos: col(fwd, |p| p.1),
            fwd_neg: col(fwd, |p| p.2),
            rev_users: col(rev, |p| p.0),
            rev_pos: col(rev, |p| p.1),
            rev_neg: col(rev, |p| p.2),
            n_behaviors,
        }
    }

    /// Loss and every gradient table of the compact protocol, bit for bit
    /// against the dense oracle, for both trainer stages.
    fn assert_compact_equals_dense(m: &GbgcnModel, batch: &LossBatch, n_shards: usize, what: &str) {
        let executor = ShardExecutor::new(2);
        for finetune in [true, false] {
            let (loss, grads) = m.sharded_grad(batch, n_shards, &executor, finetune);
            let (want_loss, want) = sharded_grad_dense(m, batch, n_shards, &executor, finetune);
            let what = format!("{what}, {n_shards} shards, finetune {finetune}");
            assert_eq!(loss.to_bits(), want_loss.to_bits(), "{what}: loss");
            assert_eq!(grads.touched(), want.touched(), "{what}: touched params");
            for ((id, g), (want_id, w)) in grads.iter().zip(want.iter()) {
                assert_eq!(id, want_id, "{what}");
                assert_eq!(bits(g), bits(w), "{what}: gradient of {}", m.store.name(id));
            }
        }
    }

    fn wall_model(social_reg: f32, ablation: AblationMode) -> GbgcnModel {
        let cfg = GbgcnConfig {
            social_reg,
            ablation,
            ..GbgcnConfig::test_config()
        };
        GbgcnModel::new(cfg, &tiny_train())
    }

    #[test]
    fn compact_shards_equal_dense_shards_on_edge_batches() {
        let sampled = {
            let d = tiny_train();
            let sampler = NegativeSampler::from_dataset(&d);
            let mut rng = StdRng::seed_from_u64(17);
            let idx: Vec<usize> = (0..48).collect();
            LossBatch::build(&d, &idx, 2, &sampler, &mut rng)
        };
        let cases = [
            ("sampled batch", sampled),
            // Users 3 and 9 and items 1 and 5 recur in every shard.
            (
                "ids repeated across shards",
                pairs_batch(
                    &[
                        (3, 1, 5),
                        (9, 5, 1),
                        (3, 5, 2),
                        (9, 1, 5),
                        (3, 1, 7),
                        (9, 5, 1),
                        (3, 1, 5),
                        (9, 7, 1),
                    ],
                    &[(9, 5, 1), (3, 1, 5), (9, 1, 7), (3, 5, 1)],
                    4,
                ),
            ),
            (
                "no reversed pairs",
                pairs_batch(
                    &[(0, 1, 2), (4, 3, 2), (0, 2, 1), (7, 1, 3), (4, 1, 2)],
                    &[],
                    3,
                ),
            ),
            // Two forward pairs against twelve reversed: from 3 shards up,
            // the trailing shards carry reversed pairs only.
            (
                "shards with only reversed pairs",
                pairs_batch(
                    &[(2, 4, 6), (8, 6, 4)],
                    &[
                        (1, 4, 6),
                        (2, 6, 4),
                        (3, 4, 5),
                        (8, 5, 4),
                        (1, 6, 5),
                        (2, 4, 6),
                        (5, 4, 6),
                        (8, 6, 4),
                        (3, 5, 6),
                        (1, 4, 5),
                        (2, 5, 4),
                        (5, 6, 4),
                    ],
                    2,
                ),
            ),
            (
                "reversed pairs only",
                pairs_batch(&[], &[(1, 2, 3), (4, 3, 2), (1, 3, 2)], 1),
            ),
        ];
        let default_reg = GbgcnConfig::default().social_reg;
        assert!(
            default_reg > 0.0,
            "the default exercises the social-reg slots"
        );
        for social_reg in [default_reg, 0.0] {
            let m = wall_model(social_reg, AblationMode::Full);
            for (what, batch) in &cases {
                for n_shards in 1..=8 {
                    assert_compact_equals_dense(
                        &m,
                        batch,
                        n_shards,
                        &format!("{what}, social_reg {social_reg}"),
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn compact_shards_equal_dense_shards_bitwise(
            n_shards in 1usize..=8,
            // Few distinct users and items, so shards share most of them.
            fwd in prop::collection::vec((0u32..30, 0u32..10, 0u32..10), 0..48),
            rev in prop::collection::vec((0u32..30, 0u32..10, 0u32..10), 0..48),
            social_reg_on in 0usize..2,
            ablation in 0usize..4,
        ) {
            let ablation = [
                AblationMode::Full,
                AblationMode::NoUserRoles,
                AblationMode::NoItemRoles,
                AblationMode::NoRoles,
            ][ablation];
            let m = wall_model(0.05 * social_reg_on as f32, ablation);
            let batch = pairs_batch(&fwd, &rev, fwd.len().max(1));
            assert_compact_equals_dense(&m, &batch, n_shards, "generated batch");
        }
    }

    #[test]
    fn fit_produces_finite_scores() {
        let d = tiny_train();
        let mut m = GbgcnModel::new(GbgcnConfig::test_config(), &d);
        let report = m.fit(&d);
        assert!(report.final_loss.is_finite());
        let items: Vec<u32> = (0..d.n_items() as u32).collect();
        let scores = m.score_items(0, &items);
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn training_is_deterministic() {
        let d = tiny_train();
        let cfg = GbgcnConfig {
            pretrain_epochs: 2,
            finetune_epochs: 2,
            ..GbgcnConfig::test_config()
        };
        let mut a = GbgcnModel::new(cfg.clone(), &d);
        let mut b = GbgcnModel::new(cfg, &d);
        a.fit(&d);
        b.fit(&d);
        let items: Vec<u32> = (0..d.n_items() as u32).collect();
        assert_eq!(a.score_items(3, &items), b.score_items(3, &items));
    }

    #[test]
    fn learns_to_rank_observed_items_on_tiny_data() {
        // Hand-built dataset with sharply separated tastes.
        let behaviors = vec![
            GroupBehavior::new(0, 0, vec![1]),
            GroupBehavior::new(0, 1, vec![1]),
            GroupBehavior::new(1, 0, vec![0]),
            GroupBehavior::new(2, 2, vec![3]),
            GroupBehavior::new(2, 3, vec![3]),
            GroupBehavior::new(3, 2, vec![2]),
        ];
        let d = Dataset::new(4, 4, behaviors, vec![(0, 1), (2, 3)], vec![1; 4]);
        let cfg = GbgcnConfig {
            dim: 8,
            pretrain_epochs: 60,
            finetune_epochs: 60,
            pretrain_lr: 0.02,
            finetune_lr: 0.5,
            batch_size: 8,
            ..GbgcnConfig::test_config()
        };
        let mut m = GbgcnModel::new(cfg, &d);
        m.fit(&d);
        let s0 = m.score_items(0, &[0, 1, 2, 3]);
        assert!(s0[0] > s0[2] && s0[0] > s0[3], "user 0 scores {s0:?}");
        let s2 = m.score_items(2, &[0, 1, 2, 3]);
        assert!(s2[2] > s2[0] && s2[3] > s2[1], "user 2 scores {s2:?}");
    }

    #[test]
    fn alpha_zero_ignores_friends() {
        let d = tiny_train();
        let cfg = GbgcnConfig {
            alpha: 0.0,
            pretrain_epochs: 1,
            finetune_epochs: 1,
            ..GbgcnConfig::test_config()
        };
        let mut m = GbgcnModel::new(cfg, &d);
        m.fit(&d);
        // With alpha = 0 the score must equal the initiator-view dot alone.
        let f = m.finals.as_ref().unwrap();
        let manual: f32 = f
            .u_hat_i
            .row(0)
            .iter()
            .zip(f.v_hat_i.row(5))
            .map(|(a, b)| a * b)
            .sum();
        let scored = m.score_items(0, &[5])[0];
        assert!((scored - manual).abs() < 1e-5);
    }

    #[test]
    fn embedding_analysis_shapes() {
        let d = tiny_train();
        let cfg = GbgcnConfig {
            pretrain_epochs: 1,
            finetune_epochs: 1,
            ..GbgcnConfig::test_config()
        };
        let mut m = GbgcnModel::new(cfg.clone(), &d);
        m.fit(&d);
        let a = m.embedding_analysis();
        let dd = (cfg.n_layers + 1) * cfg.dim;
        assert_eq!(a.u_inview_i.shape(), (d.n_users(), dd));
        assert_eq!(a.v_cross_p.shape(), (d.n_items(), dd));
        assert_eq!(a.u_hat_p.shape(), (d.n_users(), 2 * dd));
    }

    #[test]
    fn pretraining_normalizes_raw_embeddings() {
        let d = tiny_train();
        let cfg = GbgcnConfig {
            pretrain_epochs: 2,
            finetune_epochs: 0,
            ..GbgcnConfig::test_config()
        };
        let mut m = GbgcnModel::new(cfg, &d);
        m.fit(&d);
        let u = m.store.value(m.params.user_raw);
        for r in 0..u.rows() {
            let norm: f32 = u.row(r).iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!(
                (norm - 1.0).abs() < 1e-4 || norm == 0.0,
                "row {r} norm {norm}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "not fitted")]
    fn scoring_before_fit_panics() {
        let d = tiny_train();
        let m = GbgcnModel::new(GbgcnConfig::test_config(), &d);
        m.score_items(0, &[0]);
    }

    #[test]
    fn snapshot_export_matches_cached_scoring() {
        let d = tiny_train();
        let cfg = GbgcnConfig {
            pretrain_epochs: 2,
            finetune_epochs: 2,
            ..GbgcnConfig::test_config()
        };
        let mut m = GbgcnModel::new(cfg, &d);
        m.fit(&d);
        let snap = m.export_snapshot();
        assert_eq!(snap.n_users(), d.n_users());
        assert_eq!(snap.n_items(), d.n_items());
        let items: Vec<u32> = (0..d.n_items() as u32).collect();
        for user in [0u32, 3, 5] {
            assert_eq!(
                m.score_items(user, &items),
                snap.score_items(user, &items),
                "user {user}"
            );
        }
    }

    #[test]
    fn snapshot_export_shares_the_finalized_tables_and_outlives_the_model() {
        let d = tiny_train();
        let cfg = GbgcnConfig {
            pretrain_epochs: 1,
            finetune_epochs: 1,
            ..GbgcnConfig::test_config()
        };
        let mut m = GbgcnModel::new(cfg, &d);
        m.fit(&d);
        let snap = m.export_snapshot();
        let f = m.finals.as_ref().expect("fitted");
        let exported = [
            snap.user_own(),
            snap.item_own(),
            snap.user_social(),
            snap.item_social(),
        ];
        // The four tables `score_items` reads, in snapshot order.
        let cached = [&f.u_hat_i, &f.v_hat_i, &f.friend_mean_p, &f.v_hat_p];
        for (i, (table, cached)) in exported.iter().zip(cached).enumerate() {
            assert!(table.is_shared(), "table {i} is a view");
            assert_eq!(table.as_slice().as_ptr(), cached.as_slice().as_ptr());
            assert_eq!(bits(table), bits(cached), "table {i}");
        }
        let items: Vec<u32> = (0..d.n_items() as u32).collect();
        let score_bits = |scores: Vec<f32>| scores.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let offline: Vec<_> = (0..4u32)
            .map(|u| score_bits(m.score_items(u, &items)))
            .collect();

        // The model goes; its snapshot still reads and publishes.
        drop(m);
        let handle = SnapshotHandle::new(snap.clone());
        let served = handle.load();
        for (u, want) in (0..4u32).zip(&offline) {
            assert_eq!(&score_bits(snap.score_items(u, &items)), want);
            assert_eq!(&score_bits(served.snapshot().score_items(u, &items)), want);
        }

        // A delta onto the shared tables copies the tables it touches and
        // leaves the exported ones as they were.
        let before = bits(snap.user_own());
        let own = vec![0.25; snap.own_dim()];
        let social = vec![-0.5; snap.social_dim()];
        handle.publish_delta(&SnapshotDelta::new().set_user(2, own.clone(), social));
        let next = handle.load();
        assert_eq!(next.snapshot().user_own().row(2), &own[..]);
        assert_ne!(
            next.snapshot().user_own().as_slice().as_ptr(),
            snap.user_own().as_slice().as_ptr()
        );
        assert_eq!(bits(snap.user_own()), before);
        assert_eq!(
            next.snapshot().item_own().as_slice().as_ptr(),
            snap.item_own().as_slice().as_ptr(),
            "an untouched table stays aliased"
        );
    }

    #[test]
    #[should_panic(expected = "not fitted")]
    fn snapshot_export_before_fit_panics() {
        let d = tiny_train();
        let m = GbgcnModel::new(GbgcnConfig::test_config(), &d);
        let _ = m.export_snapshot();
    }

    #[test]
    fn checkpoint_roundtrip_preserves_scores() {
        let d = tiny_train();
        let cfg = GbgcnConfig {
            pretrain_epochs: 2,
            finetune_epochs: 2,
            ..GbgcnConfig::test_config()
        };
        let mut m = GbgcnModel::new(cfg.clone(), &d);
        m.fit(&d);
        let items: Vec<u32> = (0..d.n_items() as u32).collect();
        let before = m.score_items(1, &items);

        let mut buf = Vec::new();
        m.save_checkpoint(&mut buf).unwrap();

        let mut fresh = GbgcnModel::new(cfg, &d);
        fresh.load_checkpoint(buf.as_slice()).unwrap();
        let after = fresh.score_items(1, &items);
        for (a, b) in before.iter().zip(&after) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn parallel_with_one_shard_is_bit_identical_to_serial_fit() {
        let d = tiny_train();
        let cfg = GbgcnConfig {
            pretrain_epochs: 2,
            finetune_epochs: 2,
            ..GbgcnConfig::test_config()
        };
        let mut serial = GbgcnModel::new(cfg.clone(), &d);
        serial.fit(&d);
        let mut parallel = GbgcnModel::new(cfg, &d);
        parallel.fit_parallel(&d, &ParallelTrainConfig::serial(), None);
        let items: Vec<u32> = (0..d.n_items() as u32).collect();
        for user in [0u32, 3, 7] {
            assert_eq!(
                serial.score_items(user, &items),
                parallel.score_items(user, &items),
                "user {user}"
            );
        }
    }

    #[test]
    fn thread_count_never_changes_sharded_results() {
        let d = tiny_train();
        let cfg = GbgcnConfig {
            pretrain_epochs: 1,
            finetune_epochs: 2,
            ..GbgcnConfig::test_config()
        };
        let par = ParallelTrainConfig::with_threads(3);
        let mut one_thread = GbgcnModel::new(cfg.clone(), &d);
        one_thread.fit_parallel(&d, &par.clone().scheduled_on(1), None);
        let mut four_threads = GbgcnModel::new(cfg, &d);
        four_threads.fit_parallel(&d, &par.scheduled_on(4), None);
        let items: Vec<u32> = (0..d.n_items() as u32).collect();
        for user in 0..d.n_users() as u32 {
            assert_eq!(
                one_thread.score_items(user, &items),
                four_threads.score_items(user, &items),
                "user {user}"
            );
        }
    }

    #[test]
    fn sharded_grad_propagates_exactly_once_per_batch() {
        let d = tiny_train();
        let m = GbgcnModel::new(GbgcnConfig::test_config(), &d);
        let sampler = NegativeSampler::from_dataset(&d);
        let mut rng = StdRng::seed_from_u64(11);
        let batch = LossBatch::build(&d, &[0, 1, 2, 3, 4, 5], 2, &sampler, &mut rng);
        let executor = ShardExecutor::new(2);
        for n_shards in [1usize, 4, 8] {
            let before = m.propagation_forward_count();
            let _ = m.sharded_grad(&batch, n_shards, &executor, true);
            assert_eq!(
                m.propagation_forward_count() - before,
                1,
                "fine-tuning at {n_shards} shards must propagate once"
            );
        }
        // Pre-training has no propagation layers at all.
        let before = m.propagation_forward_count();
        let _ = m.sharded_grad(&batch, 4, &executor, false);
        assert_eq!(m.propagation_forward_count(), before);
    }

    #[test]
    fn embedding_analysis_reads_the_finalize_cache() {
        let d = tiny_train();
        let cfg = GbgcnConfig {
            pretrain_epochs: 1,
            finetune_epochs: 1,
            ..GbgcnConfig::test_config()
        };
        let mut m = GbgcnModel::new(cfg, &d);
        m.fit(&d);
        let after_fit = m.propagation_forward_count();
        let a = m.embedding_analysis();
        let b = m.embedding_analysis();
        assert_eq!(
            m.propagation_forward_count(),
            after_fit,
            "analysis after fit must reuse the finalize cache"
        );
        assert_eq!(a.u_hat_i.as_slice(), b.u_hat_i.as_slice());
        // An unfitted model still works — via a fresh (counted) pass.
        let fresh = GbgcnModel::new(GbgcnConfig::test_config(), &d);
        let _ = fresh.embedding_analysis();
        assert_eq!(fresh.propagation_forward_count(), 1);
    }

    #[test]
    fn shared_forward_matches_replicated_recipe() {
        // The shared-forward decomposition is mathematically identical to
        // every shard recording its whole pass on a tape of its own:
        // bitwise-equal loss (forward values are the same computation) and
        // gradients equal up to float re-association in the backward
        // reduction — in both trainer stages.
        type Oracle = fn(&GbgcnModel, &LossBatch) -> (f32, Gradients);
        let d = tiny_train();
        let m = GbgcnModel::new(GbgcnConfig::test_config(), &d);
        let sampler = NegativeSampler::from_dataset(&d);
        let mut rng = StdRng::seed_from_u64(5);
        let batch = LossBatch::build(&d, &[0, 2, 4, 6], 2, &sampler, &mut rng);
        let executor = ShardExecutor::new(3);
        for (finetune, oracle) in [(true, finetune_grad as Oracle), (false, pretrain_grad)] {
            for n_shards in [1usize, 4] {
                let what = format!("finetune {finetune}, {n_shards} shards");
                let (shared_loss, shared) = m.sharded_grad(&batch, n_shards, &executor, finetune);
                let shards = batch.split(n_shards);
                let (want_loss, want) =
                    executor.accumulate(m.store.len(), shards.len(), |s| oracle(&m, &shards[s]));
                assert_eq!(shared_loss.to_bits(), want_loss.to_bits(), "{what}");
                assert_eq!(shared.touched(), want.touched(), "{what}");
                for ((id_a, ga), (id_b, gb)) in shared.iter().zip(want.iter()) {
                    assert_eq!(id_a, id_b);
                    for (x, y) in ga.as_slice().iter().zip(gb.as_slice()) {
                        assert!(
                            (x - y).abs() <= 1e-4 * x.abs().max(y.abs()).max(1.0),
                            "param {id_a}: {x} vs {y} ({what})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn zero_behavior_dataset_trains_and_scores_without_panics() {
        // Zero-example epochs take the empty-batch fast path (no shard
        // decomposition, no shard threads) and still finalize cleanly.
        let d = Dataset::new(4, 4, vec![], vec![(0, 1)], vec![1; 4]);
        let cfg = GbgcnConfig {
            pretrain_epochs: 1,
            finetune_epochs: 2,
            ..GbgcnConfig::test_config()
        };
        let mut m = GbgcnModel::new(cfg, &d);
        let report = m.fit_parallel(&d, &ParallelTrainConfig::with_threads(3), None);
        assert_eq!(report.final_loss, 0.0);
        let scores = m.score_items(0, &[0, 1, 2, 3]);
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn refresh_publishes_per_cadence_epoch_without_redundant_final() {
        use gb_models::SnapshotHandle;
        let d = tiny_train();
        let cfg = GbgcnConfig {
            pretrain_epochs: 1,
            finetune_epochs: 4,
            ..GbgcnConfig::test_config()
        };
        // Seed the handle with an early snapshot of the right shape.
        let mut warmup = GbgcnModel::new(cfg.clone(), &d);
        warmup.fit_parallel(
            &d,
            &ParallelTrainConfig {
                refresh_every: 0,
                ..ParallelTrainConfig::serial()
            },
            None,
        );
        let handle = SnapshotHandle::new(warmup.export_snapshot());
        assert_eq!(handle.version(), 1);

        let mut m = GbgcnModel::new(cfg, &d);
        m.fit_parallel(
            &d,
            &ParallelTrainConfig::with_threads(2).refresh_every(2),
            Some(&handle),
        );
        // Publishes after epochs 2 and 4; the final export is skipped
        // because the epoch-4 cadence publish already froze the finished
        // parameters: 1 + 2.
        assert_eq!(handle.version(), 3);
        // The served tables are exactly the finished model's export.
        let items: Vec<u32> = (0..d.n_items() as u32).collect();
        assert_eq!(
            handle.load().snapshot().score_items(2, &items),
            m.export_snapshot().score_items(2, &items)
        );
    }

    #[test]
    fn validation_fit_never_returns_a_worse_model_than_its_best_checkpoint() {
        use gb_data::split::leave_one_out;
        use gb_eval::EvalProtocol;
        let d = tiny_train();
        let split = leave_one_out(&d, 3);
        let cfg = GbgcnConfig {
            pretrain_epochs: 4,
            finetune_epochs: 8,
            ..GbgcnConfig::test_config()
        };
        let sampler = NegativeSampler::from_dataset(&split.train);
        let validation_ndcg = |m: &GbgcnModel| {
            EvalProtocol::exhaustive()
                .evaluate(m, &split.validation, &sampler, split.train.n_items())
                .ndcg_at(10)
        };
        let mut selected = GbgcnModel::new(cfg.clone(), &split.train);
        let report = selected.fit_with_validation(&split.train, &split.validation, 2);
        assert!(report.final_loss.is_finite());
        // `fit` is the same trajectory without selection, i.e. the last
        // checkpoint, which is always among those compared.
        let mut last = GbgcnModel::new(cfg, &split.train);
        last.fit(&split.train);
        let (selected, last) = (validation_ndcg(&selected), validation_ndcg(&last));
        assert!(
            selected >= last,
            "selected model NDCG@10 {selected} < last epoch's {last}"
        );
    }

    #[test]
    fn validation_fit_without_validation_instances_is_fit_bitwise() {
        let d = tiny_train();
        let cfg = GbgcnConfig {
            pretrain_epochs: 2,
            finetune_epochs: 3,
            ..GbgcnConfig::test_config()
        };
        let mut plain = GbgcnModel::new(cfg.clone(), &d);
        let plain_report = plain.fit(&d);
        let mut validated = GbgcnModel::new(cfg, &d);
        let report = validated.fit_with_validation(&d, &[], 2);
        assert_eq!(
            report.final_loss.to_bits(),
            plain_report.final_loss.to_bits()
        );
        let (want, got) = (plain.export_snapshot(), validated.export_snapshot());
        for (what, a, b) in [
            ("user_own", want.user_own(), got.user_own()),
            ("user_social", want.user_social(), got.user_social()),
            ("item_own", want.item_own(), got.item_own()),
            ("item_social", want.item_social(), got.item_social()),
        ] {
            assert_eq!(bits(a), bits(b), "{what}");
        }
    }

    // ----- the retained forward: work counter, staleness, warm == cold -----

    fn tick_cfg(social_reg: f32, ablation: AblationMode) -> GbgcnConfig {
        GbgcnConfig {
            pretrain_epochs: 0,
            finetune_epochs: 1,
            social_reg,
            ablation,
            ..GbgcnConfig::test_config()
        }
    }

    fn behaviors_of(d: &Dataset, range: std::ops::Range<usize>) -> Dataset {
        d.with_behaviors(d.behaviors()[range].to_vec())
    }

    /// Propagation forwards `f` runs on `m`.
    fn forwards_run(m: &mut GbgcnModel, f: impl FnOnce(&mut GbgcnModel)) -> u64 {
        let before = m.propagation_forward_count();
        f(m);
        m.propagation_forward_count() - before
    }

    #[test]
    fn a_streaming_tick_runs_one_propagation() {
        let d = tiny_train();
        let mut history = GbgcnModel::new(
            GbgcnConfig {
                pretrain_epochs: 1,
                finetune_epochs: 1,
                ..GbgcnConfig::test_config()
            },
            &d,
        );
        history.fit(&d);
        let mut checkpoint = Vec::new();
        history.save_checkpoint(&mut checkpoint).unwrap();

        let cfg = tick_cfg(GbgcnConfig::default().social_reg, AblationMode::Full);
        let batch_size = cfg.batch_size;
        let par = ParallelTrainConfig::with_threads(4).scheduled_on(1);
        let mut m = GbgcnModel::new(cfg, &d);
        let loaded = forwards_run(&mut m, |m| m.load_checkpoint(&checkpoint[..]).unwrap());
        assert_eq!(loaded, 1, "load_checkpoint finalizes once");
        // A one-batch tick: its step takes the forward the last finalize
        // retained, so the only propagation it runs is its own finalize.
        for k in 0..3 {
            let tick = behaviors_of(&d, k * 32..(k + 1) * 32);
            let ran = forwards_run(&mut m, |m| {
                m.fit_parallel(&tick, &par, None);
            });
            assert_eq!(ran, 1, "tick {k}");
        }
        // B batches: B - 1 forwards of their own, and the finalize.
        let three_batches = behaviors_of(&d, 100..100 + 2 * batch_size + 1);
        let ran = forwards_run(&mut m, |m| {
            m.fit_parallel(&three_batches, &par, None);
        });
        assert_eq!(ran, 3, "a 3-batch call");
        // A measured epoch starts cold and does not finalize: one forward
        // per batch, and nothing left for the tick after it to take.
        let batches = d.behaviors().len().div_ceil(batch_size) as u64;
        let ran = forwards_run(&mut m, |m| {
            m.measure_epoch_secs_parallel(1, &par);
        });
        assert_eq!(ran, batches, "a measured epoch");
        let tick = behaviors_of(&d, 0..32);
        let ran = forwards_run(&mut m, |m| {
            m.fit_parallel(&tick, &par, None);
        });
        assert_eq!(ran, 2, "the tick after a measured epoch");
    }

    fn assert_same_grads(got: &(f32, Gradients), want: &(f32, Gradients), what: &str) {
        assert_eq!(got.0.to_bits(), want.0.to_bits(), "{what}: loss");
        assert_eq!(got.1.touched(), want.1.touched(), "{what}: touched params");
        for ((id, g), (want_id, w)) in got.1.iter().zip(want.1.iter()) {
            assert_eq!(id, want_id, "{what}");
            assert_eq!(bits(g), bits(w), "{what}: gradient of param {id}");
        }
    }

    #[test]
    fn a_stale_forward_is_never_reused() {
        use gb_autograd::checkpoint;
        use gb_data::split::leave_one_out;
        let d = tiny_train();
        let split = leave_one_out(&d, 3);
        let cfg = GbgcnConfig {
            pretrain_epochs: 1,
            finetune_epochs: 2,
            ..GbgcnConfig::test_config()
        };
        let executor = ShardExecutor::new(2);
        let batch = {
            let sampler = NegativeSampler::from_dataset(&d);
            let mut rng = StdRng::seed_from_u64(23);
            let idx: Vec<usize> = (0..40).collect();
            LossBatch::build(&d, &idx, 2, &sampler, &mut rng)
        };
        let mut other = GbgcnModel::new(
            GbgcnConfig {
                seed: 99,
                ..cfg.clone()
            },
            &d,
        );
        other.fit(&d);
        let mut other_json = Vec::new();
        other.save_checkpoint(&mut other_json).unwrap();

        // Every way the parameters move under a fitted model, and whether
        // the path re-finalizes (leaving a *fresh* forward to take).
        type Mutation<'a> = Box<dyn Fn(&mut GbgcnModel) + 'a>;
        let paths: Vec<(&str, bool, Mutation)> = vec![
            ("no mutation", true, Box::new(|_| {})),
            (
                "load_checkpoint",
                true,
                Box::new(|m| m.load_checkpoint(&other_json[..]).unwrap()),
            ),
            (
                "fit_with_validation's restore",
                true,
                Box::new(|m| {
                    m.fit_with_validation(&split.train, &split.validation, 1);
                }),
            ),
            (
                "a second fit_parallel",
                true,
                Box::new(|m| {
                    m.fit_parallel(&d, &ParallelTrainConfig::with_threads(3), None);
                }),
            ),
            (
                "a pre-train stage (Adam steps, normalize_rows), not finalized",
                false,
                Box::new(|m| {
                    let par = ParallelTrainConfig::serial();
                    m.train(&d, &par, 5, (1, 0), |_, _| {});
                }),
            ),
            (
                "normalize_rows alone",
                false,
                Box::new(|m| {
                    let id = m.params.user_raw;
                    let normalized = kernels::normalize_rows(m.store.value(id));
                    *m.store.value_mut(id) = normalized;
                }),
            ),
            (
                "an optimizer step",
                false,
                Box::new(|m| {
                    let (_, grads) = m.sharded_grad(&batch, 2, &executor, true);
                    Sgd::new(0.1).step(&mut m.store, &grads);
                }),
            ),
        ];
        for (what, refinalizes, mutate) in &paths {
            let mut m = GbgcnModel::new(cfg.clone(), &split.train);
            m.fit(&split.train);
            mutate(&mut m);
            // The oracle: the same parameters under a model that never
            // finalized, so it has no forward to reuse.
            let mut cold = GbgcnModel::new(cfg.clone(), &split.train);
            checkpoint::restore(&mut cold.store, &checkpoint::snapshot(&m.store));
            let want = cold.sharded_grad(&batch, 3, &executor, true);

            let before = m.propagation_forward_count();
            let got = m.sharded_grad(&batch, 3, &executor, true);
            let ran = m.propagation_forward_count() - before;
            assert_same_grads(&got, &want, what);
            assert_eq!(ran, u64::from(!refinalizes), "{what}: forwards run");
            // Taken or dropped, the retained forward is gone either way.
            let again = m.sharded_grad(&batch, 3, &executor, true);
            assert_same_grads(&again, &want, &format!("{what}, second call"));
            assert_eq!(m.propagation_forward_count() - before, ran + 1, "{what}");
        }
    }

    /// Everything a trainer call leaves observable on `m`, as bits: the four
    /// exported snapshot tables, the twelve analysis tables, every parameter.
    fn observable_bits(m: &GbgcnModel) -> Vec<Vec<u32>> {
        let snap = m.export_snapshot();
        let a = m.embedding_analysis();
        [
            snap.user_own(),
            snap.user_social(),
            snap.item_own(),
            snap.item_social(),
            &a.u_inview_i,
            &a.u_inview_p,
            &a.v_inview_i,
            &a.v_inview_p,
            &a.u_cross_i,
            &a.u_cross_p,
            &a.v_cross_i,
            &a.v_cross_p,
            &a.u_hat_i,
            &a.u_hat_p,
            &a.v_hat_i,
            &a.v_hat_p,
        ]
        .into_iter()
        .chain(m.store.iter().map(|(_, _, v)| v))
        .map(bits)
        .collect()
    }

    /// One trainer call of a chain.
    type Call<'a> = &'a dyn Fn(&mut GbgcnModel) -> TrainReport;

    /// Runs `calls` in order on one freshly finalized model — as written,
    /// each free to take the forward its predecessor's `finalize`
    /// retained, or (`cold`) with that forward released before every call —
    /// and returns the loss bits and [`observable_bits`] after each.
    fn run_chain(
        cfg: &GbgcnConfig,
        d: &Dataset,
        calls: &[Call],
        cold: bool,
    ) -> Vec<(u32, Vec<Vec<u32>>)> {
        let mut m = GbgcnModel::new(cfg.clone(), d);
        m.finalize();
        calls
            .iter()
            .map(|call| {
                if cold {
                    m.retain(None);
                }
                let report = call(&mut m);
                (report.final_loss.to_bits(), observable_bits(&m))
            })
            .collect()
    }

    fn assert_warm_equals_cold(cfg: &GbgcnConfig, d: &Dataset, calls: &[Call], what: &str) {
        let (warm, cold) = (
            run_chain(cfg, d, calls, false),
            run_chain(cfg, d, calls, true),
        );
        for (k, (w, c)) in warm.iter().zip(&cold).enumerate() {
            assert_eq!(w.0, c.0, "{what}: final_loss of call {k}");
            assert!(w.1 == c.1, "{what}: tables or parameters after call {k}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn warm_tick_chains_equal_cold_ones_bitwise(
            n_ticks in 1usize..=6,
            tick_len in 1usize..=48,
            n_shards in 1usize..=8,
            n_threads in 1usize..=2,
            social_reg_on in 0usize..2,
            ablation in 0usize..4,
        ) {
            let ablation = [
                AblationMode::Full,
                AblationMode::NoUserRoles,
                AblationMode::NoItemRoles,
                AblationMode::NoRoles,
            ][ablation];
            let social_reg = [0.0, GbgcnConfig::default().social_reg][social_reg_on];
            let d = tiny_train();
            let par = ParallelTrainConfig::with_threads(n_shards).scheduled_on(n_threads);
            let ticks: Vec<_> = (0..n_ticks)
                .map(|k| {
                    let tick = behaviors_of(&d, k * tick_len..(k + 1) * tick_len);
                    let par = &par;
                    move |m: &mut GbgcnModel| m.fit_parallel(&tick, par, None)
                })
                .collect();
            let calls: Vec<Call> = ticks.iter().map(|tick| tick as Call).collect();
            assert_warm_equals_cold(&tick_cfg(social_reg, ablation), &d, &calls, "tick chain");
        }
    }

    #[test]
    fn warm_trainer_calls_equal_cold_ones_bitwise() {
        use gb_data::split::leave_one_out;
        let d = tiny_train();
        let split = leave_one_out(&d, 3);
        let default_reg = GbgcnConfig::default().social_reg;
        let tick = tick_cfg(default_reg, AblationMode::Full);
        let par = ParallelTrainConfig::with_threads(3).scheduled_on(2);
        let several_batches = behaviors_of(&d, 0..2 * tick.batch_size + 9);
        let handle = {
            let mut seed = GbgcnModel::new(tick.clone(), &d);
            seed.finalize();
            SnapshotHandle::new(seed.export_snapshot())
        };
        let epochs = |pretrain_epochs, finetune_epochs| GbgcnConfig {
            pretrain_epochs,
            finetune_epochs,
            ..tick.clone()
        };
        type BoxedCall<'a> = Box<dyn Fn(&mut GbgcnModel) -> TrainReport + 'a>;
        let cases: Vec<(&str, GbgcnConfig, BoxedCall)> = vec![
            (
                "multi-batch calls",
                tick.clone(),
                Box::new(|m| m.fit_parallel(&several_batches, &par, None)),
            ),
            ("multi-epoch calls", epochs(0, 3), Box::new(|m| m.fit(&d))),
            (
                "calls that pre-train first",
                epochs(2, 2),
                Box::new(|m| m.fit_parallel(&d, &par, None)),
            ),
            (
                "calls that publish (and so finalize) every epoch",
                epochs(0, 3),
                Box::new(|m| m.fit_parallel(&d, &par.clone().refresh_every(1), Some(&handle))),
            ),
            (
                "fit_with_validation, whose hook finalizes mid-run",
                epochs(1, 3),
                Box::new(|m| m.fit_with_validation(&split.train, &split.validation, 1)),
            ),
        ];
        for (what, cfg, call) in cases {
            // Twice: the second call starts from the first one's finalize.
            assert_warm_equals_cold(&cfg, &d, &[&*call, &*call], what);
        }

        // The finalizes *inside* a run, against runs that have none: a
        // run publishing every epoch computes what a run with no handle
        // computes,
        let cfg = epochs(1, 3);
        let run = |par: &ParallelTrainConfig, handle: Option<&SnapshotHandle>| {
            let mut m = GbgcnModel::new(cfg.clone(), &d);
            let report = m.fit_parallel(&d, par, handle);
            (report.final_loss.to_bits(), observable_bits(&m))
        };
        assert!(
            run(&par.clone().refresh_every(1), Some(&handle)) == run(&par, None),
            "publishing every epoch changed the run"
        );
        // and validation selects exactly the best prefix of `fit`'s
        // trajectory: epoch `e`'s parameters are those of a plain `fit` of
        // `e` epochs under the same seed.
        let sampler = NegativeSampler::from_dataset(&split.train);
        let mut best: Option<(f64, Vec<Vec<u32>>)> = None;
        let mut last_loss = 0;
        for e in 1..=cfg.finetune_epochs {
            let mut prefix = GbgcnModel::new(epochs(cfg.pretrain_epochs, e), &split.train);
            last_loss = prefix.fit(&split.train).final_loss.to_bits();
            let ndcg = gb_eval::EvalProtocol::exhaustive()
                .evaluate(&prefix, &split.validation, &sampler, split.train.n_items())
                .ndcg_at(10);
            if best.as_ref().is_none_or(|(score, _)| ndcg > *score) {
                best = Some((ndcg, observable_bits(&prefix)));
            }
        }
        let mut selected = GbgcnModel::new(cfg, &split.train);
        let report = selected.fit_with_validation(&split.train, &split.validation, 1);
        assert_eq!(report.final_loss.to_bits(), last_loss);
        assert!(
            observable_bits(&selected) == best.expect("at least one epoch").1,
            "validation did not select the best prefix of the fit trajectory"
        );
    }
}
