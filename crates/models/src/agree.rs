//! AGREE \[19\]: attentive group recommendation, on the paper's group
//! conversion of the group-buying data.

use crate::common::{add_l2, train_pairs, Recommender, TrainConfig, TrainReport};
use gb_autograd::{ParamId, ParamStore, Tape, Var};
use gb_data::convert::{to_groups, GroupData};
use gb_data::Dataset;
use gb_eval::Scorer;
use gb_tensor::{init, kernels, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// AGREE aggregates member embeddings into a group embedding with an
/// item-conditioned attention gate, adds a learned group-preference
/// embedding, and scores the target item against the result. As the paper
/// prescribes, it trains with the **regression-based pairwise loss**
/// `(ŷ_pos − ŷ_neg − 1)²`, which the paper identifies as one reason the
/// group recommenders trail BPR-trained baselines on this task.
///
/// Faithfulness note: the original softmax
/// attention over variable-size member sets is replaced by a sigmoid
/// gate followed by mean aggregation. On Beibei-like sparsity the paper
/// itself observes that "attention mechanisms do not work due to the data
/// sparsity problem", and the gate preserves the item-conditioned,
/// member-weighted structure that defines the model family.
pub struct Agree {
    cfg: TrainConfig,
    store: ParamStore,
    state: Option<AgreeState>,
}

struct AgreeState {
    user_emb: ParamId,
    item_emb: ParamId,
    group_pref: ParamId,
    att_w: ParamId,
    att_b: ParamId,
    groups: GroupData,
}

impl Agree {
    /// Creates an untrained AGREE model.
    pub fn new(cfg: TrainConfig) -> Self {
        Self {
            cfg,
            store: ParamStore::new(),
            state: None,
        }
    }

    /// Tape forward: group scores for aligned `(group, item)` lists.
    ///
    /// `flat_members` / `offsets` is the CSR layout of the batch groups'
    /// member lists; `items_per_member` repeats each entry's item for each
    /// of its members.
    #[allow(clippy::too_many_arguments)]
    fn forward(
        store: &ParamStore,
        s: &AgreeState,
        tape: &mut Tape,
        groups: &[u32],
        items: &[u32],
        flat_members: Arc<Vec<u32>>,
        items_per_member: Arc<Vec<u32>>,
        offsets: Arc<Vec<usize>>,
    ) -> (Var, Vec<Var>) {
        let n_edges = flat_members.len();
        let mem = tape.gather_param(store, s.user_emb, flat_members);
        let itm_edge = tape.gather_param(store, s.item_emb, items_per_member);
        let att_in = tape.concat_cols(&[mem, itm_edge]);
        let w = tape.param(store, s.att_w);
        let b = tape.param(store, s.att_b);
        let att_lin = tape.matmul(att_in, w);
        let att_logit = tape.add_bias(att_lin, b);
        let gate = tape.sigmoid(att_logit);
        let gated = tape.scale_rows(mem, gate);
        // Segment i of the flattened edge rows is exactly rows
        // offsets[i]..offsets[i+1], so the member list is the identity.
        let ident: Arc<Vec<u32>> = Arc::new((0..n_edges as u32).collect());
        let agg = tape.segment_mean(gated, offsets, ident);

        let pref = tape.gather_param(store, s.group_pref, Arc::new(groups.to_vec()));
        let group_repr = tape.add(agg, pref);
        let item_repr = tape.gather_param(store, s.item_emb, Arc::new(items.to_vec()));
        let score = tape.rowwise_dot(group_repr, item_repr);
        (score, vec![mem, item_repr, pref])
    }

    /// Flattens member lists of the given groups into CSR form.
    fn flatten(
        groups: &GroupData,
        group_ids: &[u32],
        items: &[u32],
    ) -> (Vec<u32>, Vec<u32>, Vec<usize>) {
        let mut flat = Vec::new();
        let mut per_member_items = Vec::new();
        let mut offsets = vec![0usize];
        for (&g, &it) in group_ids.iter().zip(items) {
            let members = &groups.members[g as usize];
            flat.extend_from_slice(members);
            per_member_items.extend(std::iter::repeat_n(it, members.len()));
            offsets.push(flat.len());
        }
        (flat, per_member_items, offsets)
    }
}

impl Recommender for Agree {
    fn name(&self) -> &str {
        "AGREE"
    }

    fn fit(&mut self, train: &Dataset) -> TrainReport {
        let cfg = &self.cfg;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let groups = to_groups(train);

        let mut store = ParamStore::new();
        let d = cfg.dim;
        let user_emb = store.add(
            "agree.user",
            init::xavier_uniform(train.n_users(), d, &mut rng),
        );
        let item_emb = store.add(
            "agree.item",
            init::xavier_uniform(train.n_items(), d, &mut rng),
        );
        let group_pref = store.add(
            "agree.group",
            init::xavier_uniform(train.n_users(), d, &mut rng),
        );
        let att_w = store.add("agree.att.w", init::xavier_uniform(2 * d, 1, &mut rng));
        let att_b = store.add("agree.att.b", Matrix::zeros(1, 1));
        let state = AgreeState {
            user_emb,
            item_emb,
            group_pref,
            att_w,
            att_b,
            groups,
        };

        let report = train_pairs(
            "AGREE",
            cfg,
            train,
            &state.groups.group_items,
            &mut store,
            &mut rng,
            |store, batch| {
                let n = batch.len();
                let gids = &batch.users;
                let mut tape = Tape::new();
                let (flat_p, ipm_p, off_p) = Self::flatten(&state.groups, gids, &batch.pos);
                let (pos_s, mut reg) = Self::forward(
                    store,
                    &state,
                    &mut tape,
                    gids,
                    &batch.pos,
                    Arc::new(flat_p),
                    Arc::new(ipm_p),
                    Arc::new(off_p),
                );
                let (flat_n, ipm_n, off_n) = Self::flatten(&state.groups, gids, &batch.neg);
                let (neg_s, reg_n) = Self::forward(
                    store,
                    &state,
                    &mut tape,
                    gids,
                    &batch.neg,
                    Arc::new(flat_n),
                    Arc::new(ipm_n),
                    Arc::new(off_n),
                );
                reg.extend(reg_n);

                // Regression-based pairwise loss: mean((pos - neg - 1)^2).
                let diff = tape.sub(pos_s, neg_s);
                let ones = tape.constant(Matrix::full(n, 1, 1.0));
                let shifted = tape.sub(diff, ones);
                let sq = tape.mul(shifted, shifted);
                let loss = tape.mean_all(sq);
                let loss = add_l2(&mut tape, loss, &reg, cfg.l2, n);
                (tape.value(loss).get(0, 0), tape.backward(loss, store))
            },
        );
        self.store = store;
        self.state = Some(state);
        report
    }
}

impl Scorer for Agree {
    /// Test-time scoring follows the paper's protocol: "replace each user
    /// with the group corresponding to the user" — group ids coincide with
    /// user ids in the conversion.
    fn score_items(&self, user: u32, items: &[u32]) -> Vec<f32> {
        let s = self.state.as_ref().expect("model not fitted");
        let store = &self.store;
        let members = &s.groups.members[user as usize];
        let mem_emb = kernels::gather_rows(store.value(s.user_emb), members);
        let pref = store.value(s.group_pref).row(user as usize);
        let w = store.value(s.att_w);
        let b = store.value(s.att_b).get(0, 0);

        items
            .iter()
            .map(|&item| {
                let item_row = store.value(s.item_emb).row(item as usize);
                // Gate each member on this item, mean-aggregate, add pref.
                let dcols = mem_emb.cols();
                let mut agg = vec![0.0f32; dcols];
                for r in 0..mem_emb.rows() {
                    let m = mem_emb.row(r);
                    let mut logit = b;
                    for (k, &mv) in m.iter().enumerate() {
                        logit += mv * w.get(k, 0);
                    }
                    for (k, &iv) in item_row.iter().enumerate() {
                        logit += iv * w.get(dcols + k, 0);
                    }
                    let gate = kernels::sigmoid_scalar(logit);
                    for (a, &mv) in agg.iter_mut().zip(m) {
                        *a += gate * mv;
                    }
                }
                let inv = 1.0 / mem_emb.rows().max(1) as f32;
                let mut score = 0.0f32;
                for k in 0..dcols {
                    score += (agg[k] * inv + pref[k]) * item_row[k];
                }
                score
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_data::GroupBehavior;

    fn toy() -> Dataset {
        let behaviors = vec![
            GroupBehavior::new(0, 0, vec![1]),
            GroupBehavior::new(0, 1, vec![1]),
            GroupBehavior::new(2, 2, vec![3]),
            GroupBehavior::new(2, 3, vec![3]),
        ];
        Dataset::new(4, 4, behaviors, vec![(0, 1), (2, 3)], vec![1; 4])
    }

    #[test]
    fn learns_group_preferences() {
        let cfg = TrainConfig {
            dim: 8,
            epochs: 200,
            batch_size: 8,
            lr: 0.03,
            ..Default::default()
        };
        let mut m = Agree::new(cfg);
        m.fit(&toy());
        let s = m.score_items(0, &[0, 1, 2, 3]);
        assert!(s[0] > s[2] && s[1] > s[3], "scores {s:?}");
    }

    #[test]
    fn tape_and_plain_scoring_agree() {
        let cfg = TrainConfig {
            dim: 8,
            epochs: 2,
            batch_size: 4,
            ..Default::default()
        };
        let mut m = Agree::new(cfg);
        m.fit(&toy());
        let s = m.state.as_ref().unwrap();
        let gids = vec![0u32];
        let items = vec![2u32];
        let (flat, ipm, off) = Agree::flatten(&s.groups, &gids, &items);
        let mut tape = Tape::new();
        let (score, _) = Agree::forward(
            &m.store,
            s,
            &mut tape,
            &gids,
            &items,
            Arc::new(flat),
            Arc::new(ipm),
            Arc::new(off),
        );
        let tape_score = tape.value(score).get(0, 0);
        let plain_score = m.score_items(0, &[2])[0];
        assert!(
            (tape_score - plain_score).abs() < 1e-5,
            "tape {tape_score} vs plain {plain_score}"
        );
    }

    #[test]
    fn failed_behaviors_do_not_create_group_activities() {
        // A dataset whose only behavior fails: AGREE has nothing to train
        // on but must not panic.
        let d = Dataset::new(
            2,
            2,
            vec![GroupBehavior::new(0, 0, vec![])],
            vec![(0, 1)],
            vec![1; 2],
        );
        let cfg = TrainConfig {
            dim: 4,
            epochs: 2,
            ..Default::default()
        };
        let mut m = Agree::new(cfg);
        let report = m.fit(&d);
        assert_eq!(report.epochs, 2);
        assert!(m.score_items(0, &[0, 1]).iter().all(|s| s.is_finite()));
    }
}
