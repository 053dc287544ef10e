//! The GBGCN forward pass: in-view propagation (Eqs. 1–3) and cross-view
//! propagation (Eqs. 4–8) on the autodiff tape.

use crate::config::{Activation, GbgcnConfig};
use gb_autograd::{ParamId, ParamStore, Table, Tape, Var};
use gb_graph::HeteroGraphs;
use gb_tensor::init;
use rand::rngs::StdRng;

/// Parameter ids of the GBGCN model.
///
/// Six FC transforms connect the subspaces during cross-view propagation;
/// subscripts read *source→target* exactly as in the paper
/// (`w_up_ui` transforms user embeddings from the participant view into
/// the initiator-view user subspace, Eq. 4).
#[derive(Clone, Copy, Debug)]
pub struct PropParams {
    /// Shared raw user embeddings (`u_m`, `P x d`).
    pub user_raw: ParamId,
    /// Shared raw item embeddings (`v_n`, `Q x d`).
    pub item_raw: ParamId,
    /// Optional separate participant-view raw embeddings (extension
    /// ablation; `None` reproduces the paper's shared-raw design).
    pub user_raw_p: Option<ParamId>,
    /// Optional separate participant-view raw item embeddings.
    pub item_raw_p: Option<ParamId>,
    /// `W_{vi,ui}`, `b_{vi,ui}` (Eq. 4, interacted-items term).
    pub w_vi_ui: ParamId,
    pub b_vi_ui: ParamId,
    /// `W_{up,ui}`, `b_{up,ui}` (Eq. 4, shared-to users term).
    pub w_up_ui: ParamId,
    pub b_up_ui: ParamId,
    /// `W_{ui,vi}`, `b_{ui,vi}` (Eq. 5).
    pub w_ui_vi: ParamId,
    pub b_ui_vi: ParamId,
    /// `W_{vp,up}`, `b_{vp,up}` (Eq. 6, interacted-items term).
    pub w_vp_up: ParamId,
    pub b_vp_up: ParamId,
    /// `W_{ui,up}`, `b_{ui,up}` (Eq. 6, shared-by users term).
    pub w_ui_up: ParamId,
    pub b_ui_up: ParamId,
    /// `W_{up,vp}`, `b_{up,vp}` (Eq. 7).
    pub w_up_vp: ParamId,
    pub b_up_vp: ParamId,
}

impl PropParams {
    /// Registers all GBGCN parameters in `store` with Xavier init [39].
    pub fn init(
        store: &mut ParamStore,
        cfg: &GbgcnConfig,
        n_users: usize,
        n_items: usize,
        rng: &mut StdRng,
    ) -> Self {
        let d = cfg.dim;
        // Cross-view FCs operate on the (L+1)d-wide concatenated vectors.
        let dd = (cfg.n_layers + 1) * d;
        let user_raw = store.add("gbgcn.user", init::xavier_uniform(n_users, d, rng));
        let item_raw = store.add("gbgcn.item", init::xavier_uniform(n_items, d, rng));
        let (user_raw_p, item_raw_p) = if cfg.separate_raw {
            (
                Some(store.add("gbgcn.user.p", init::xavier_uniform(n_users, d, rng))),
                Some(store.add("gbgcn.item.p", init::xavier_uniform(n_items, d, rng))),
            )
        } else {
            (None, None)
        };
        let mut fc = |name: &str| {
            let w = store.add(format!("gbgcn.w.{name}"), init::xavier_uniform(dd, dd, rng));
            let b = store.add(format!("gbgcn.b.{name}"), gb_tensor::Matrix::zeros(1, dd));
            (w, b)
        };
        let (w_vi_ui, b_vi_ui) = fc("vi_ui");
        let (w_up_ui, b_up_ui) = fc("up_ui");
        let (w_ui_vi, b_ui_vi) = fc("ui_vi");
        let (w_vp_up, b_vp_up) = fc("vp_up");
        let (w_ui_up, b_ui_up) = fc("ui_up");
        let (w_up_vp, b_up_vp) = fc("up_vp");
        Self {
            user_raw,
            item_raw,
            user_raw_p,
            item_raw_p,
            w_vi_ui,
            b_vi_ui,
            w_up_ui,
            b_up_ui,
            w_ui_vi,
            b_ui_vi,
            w_vp_up,
            b_vp_up,
            w_ui_up,
            b_ui_up,
            w_up_vp,
            b_up_vp,
        }
    }
}

/// All embedding nodes produced by one forward pass.
///
/// `*_inview_*` are the `{0}`-superscript concatenations of Eq. 3
/// (`(L+1)d` wide); `*_cross_*` the `{1}`-superscript cross-view outputs
/// of Eqs. 4–7; `*_hat_*` the final Eq. 8 concatenations (`2(L+1)d`).
///
/// Each `*_hat_*` is a table of its own on the tape. Under
/// [`AblationMode::Full`](crate::AblationMode::Full) the `*_inview_*`
/// nodes and the users' `u_cross_*` are column windows of the hats, not
/// tables the hats copy.
#[derive(Clone, Copy, Debug)]
pub struct ViewEmbeddings {
    pub u_inview_i: Var,
    pub u_inview_p: Var,
    pub v_inview_i: Var,
    pub v_inview_p: Var,
    pub u_cross_i: Var,
    pub u_cross_p: Var,
    pub v_cross_i: Var,
    pub v_cross_p: Var,
    pub u_hat_i: Var,
    pub u_hat_p: Var,
    pub v_hat_i: Var,
    pub v_hat_p: Var,
}

fn average_pair(tape: &mut Tape, a: Var, b: Var) -> Var {
    let sum = tape.add(a, b);
    tape.scale(sum, 0.5)
}

/// Runs the full GBGCN forward pass on `tape`.
///
/// The four `2(L+1)d`-wide hat tables are reserved up front and every
/// table of Eqs. 1–8 that ends up in one of them is written there
/// directly: level `l` of a view into columns `l·d ..`, the users' cross
/// sum into `(L+1)d ..`. The Eq. 3 and Eq. 8 concatenations then find
/// their parts in place and copy only what was computed elsewhere — the
/// shared raw table into the participant view, the item FC outputs
/// (whose own table `act′` reads on the way back) and, under a role
/// ablation, the averaged levels and cross terms, which go to tables of
/// their own because both views read them. Every value is what the
/// copying layout computes, bit for bit.
pub fn propagate(
    store: &ParamStore,
    params: &PropParams,
    tape: &mut Tape,
    graphs: &HeteroGraphs,
    cfg: &GbgcnConfig,
) -> ViewEmbeddings {
    let gi = &graphs.initiator;
    let gp = &graphs.participant;
    let gs = &graphs.share;
    let d = cfg.dim;
    let dd = (cfg.n_layers + 1) * d;
    let (ablate_users, ablate_items) = (cfg.ablation.ablate_users(), cfg.ablation.ablate_items());

    // ---- the Eq. 8 tables, filled in place below ----------------------
    let u_hat_i_t = tape.reserve(graphs.n_users(), 2 * dd);
    let u_hat_p_t = tape.reserve(graphs.n_users(), 2 * dd);
    let v_hat_i_t = tape.reserve(graphs.n_items(), 2 * dd);
    let v_hat_p_t = tape.reserve(graphs.n_items(), 2 * dd);
    // Columns `col ..` of `table`, unless the view pair is averaged.
    let at = |averaged: bool, table: Table, col: usize| (!averaged).then_some((table, col));

    // ---- raw embedding layer -------------------------------------------
    let u_raw_i = tape.param_into(store, params.user_raw, Some((u_hat_i_t, 0)));
    let v_raw_i = tape.param_into(store, params.item_raw, Some((v_hat_i_t, 0)));
    let u_raw_p = match params.user_raw_p {
        Some(id) => tape.param_into(store, id, Some((u_hat_p_t, 0))),
        None => u_raw_i,
    };
    let v_raw_p = match params.item_raw_p {
        Some(id) => tape.param_into(store, id, Some((v_hat_p_t, 0))),
        None => v_raw_i,
    };

    // ---- in-view propagation (Eqs. 1-3), no FC layers -------------------
    let mut u_levels_i = vec![u_raw_i];
    let mut u_levels_p = vec![u_raw_p];
    let mut v_levels_i = vec![v_raw_i];
    let mut v_levels_p = vec![v_raw_p];
    for l in 1..=cfg.n_layers {
        let mut u_i = tape.segment_mean_into(
            v_levels_i[l - 1],
            gi.user_to_item().offsets(),
            gi.user_to_item().members(),
            at(ablate_users, u_hat_i_t, l * d),
        );
        let mut u_p = tape.segment_mean_into(
            v_levels_p[l - 1],
            gp.user_to_item().offsets(),
            gp.user_to_item().members(),
            at(ablate_users, u_hat_p_t, l * d),
        );
        if ablate_users {
            let avg = average_pair(tape, u_i, u_p);
            u_i = avg;
            u_p = avg;
        }
        let mut v_i = tape.segment_mean_into(
            u_levels_i[l - 1],
            gi.item_to_user().offsets(),
            gi.item_to_user().members(),
            at(ablate_items, v_hat_i_t, l * d),
        );
        let mut v_p = tape.segment_mean_into(
            u_levels_p[l - 1],
            gp.item_to_user().offsets(),
            gp.item_to_user().members(),
            at(ablate_items, v_hat_p_t, l * d),
        );
        if ablate_items {
            let avg = average_pair(tape, v_i, v_p);
            v_i = avg;
            v_p = avg;
        }
        u_levels_i.push(u_i);
        u_levels_p.push(u_p);
        v_levels_i.push(v_i);
        v_levels_p.push(v_p);
    }
    let u_inview_i = tape.concat_cols_into(&u_levels_i, Some((u_hat_i_t, 0)));
    let u_inview_p = tape.concat_cols_into(&u_levels_p, Some((u_hat_p_t, 0)));
    let v_inview_i = tape.concat_cols_into(&v_levels_i, Some((v_hat_i_t, 0)));
    let v_inview_p = tape.concat_cols_into(&v_levels_p, Some((v_hat_p_t, 0)));

    // ---- cross-view propagation (Eqs. 4-7) ------------------------------
    let act = match cfg.activation {
        Activation::Tanh => gb_autograd::Activation::Tanh,
        Activation::Sigmoid => gb_autograd::Activation::Sigmoid,
        Activation::LeakyRelu => gb_autograd::Activation::LeakyRelu(0.2),
    };
    // One tape node per FC: the tape keeps the layer's output only.
    let fc = |tape: &mut Tape, x: Var, w: ParamId, b: ParamId| {
        let wv = tape.param(store, w);
        let bv = tape.param(store, b);
        tape.dense(x, wv, bv, act)
    };

    // Eq. 4: initiator-view users <- own items + users they shared to.
    let items_i = tape.segment_mean(
        v_inview_i,
        gi.user_to_item().offsets(),
        gi.user_to_item().members(),
    );
    let term_items_i = fc(tape, items_i, params.w_vi_ui, params.b_vi_ui);
    let shared_to = tape.segment_mean(u_inview_p, gs.out_csr().offsets(), gs.out_csr().members());
    let term_shared_to = fc(tape, shared_to, params.w_up_ui, params.b_up_ui);
    let mut u_cross_i = tape.add_into(
        term_items_i,
        term_shared_to,
        at(ablate_users, u_hat_i_t, dd),
    );

    // Eq. 6: participant-view users <- own items + users who shared to them.
    let items_p = tape.segment_mean(
        v_inview_p,
        gp.user_to_item().offsets(),
        gp.user_to_item().members(),
    );
    let term_items_p = fc(tape, items_p, params.w_vp_up, params.b_vp_up);
    let shared_by = tape.segment_mean(u_inview_i, gs.in_csr().offsets(), gs.in_csr().members());
    let term_shared_by = fc(tape, shared_by, params.w_ui_up, params.b_ui_up);
    let mut u_cross_p = tape.add_into(
        term_items_p,
        term_shared_by,
        at(ablate_users, u_hat_p_t, dd),
    );

    if ablate_users {
        let avg = average_pair(tape, u_cross_i, u_cross_p);
        u_cross_i = avg;
        u_cross_p = avg;
    }

    // Eq. 5 / Eq. 7: items <- interacting users of the same view.
    let users_i = tape.segment_mean(
        u_inview_i,
        gi.item_to_user().offsets(),
        gi.item_to_user().members(),
    );
    let mut v_cross_i = fc(tape, users_i, params.w_ui_vi, params.b_ui_vi);
    let users_p = tape.segment_mean(
        u_inview_p,
        gp.item_to_user().offsets(),
        gp.item_to_user().members(),
    );
    let mut v_cross_p = fc(tape, users_p, params.w_up_vp, params.b_up_vp);

    if ablate_items {
        let avg = average_pair(tape, v_cross_i, v_cross_p);
        v_cross_i = avg;
        v_cross_p = avg;
    }

    // ---- Eq. 8 final concatenation --------------------------------------
    ViewEmbeddings {
        u_inview_i,
        u_inview_p,
        v_inview_i,
        v_inview_p,
        u_cross_i,
        u_cross_p,
        v_cross_i,
        v_cross_p,
        u_hat_i: tape.concat_cols_into(&[u_inview_i, u_cross_i], Some((u_hat_i_t, 0))),
        u_hat_p: tape.concat_cols_into(&[u_inview_p, u_cross_p], Some((u_hat_p_t, 0))),
        v_hat_i: tape.concat_cols_into(&[v_inview_i, v_cross_i], Some((v_hat_i_t, 0))),
        v_hat_p: tape.concat_cols_into(&[v_inview_p, v_cross_p], Some((v_hat_p_t, 0))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AblationMode;
    use gb_data::synth::{generate, SynthConfig};
    use rand::SeedableRng;
    use std::sync::Arc;

    fn setup(cfg: &GbgcnConfig) -> (ParamStore, PropParams, HeteroGraphs) {
        let data = generate(&SynthConfig::tiny());
        let graphs = data.build_hetero();
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let params = PropParams::init(&mut store, cfg, data.n_users(), data.n_items(), &mut rng);
        (store, params, graphs)
    }

    #[test]
    fn output_shapes_follow_the_paper() {
        let cfg = GbgcnConfig::test_config();
        let (store, params, graphs) = setup(&cfg);
        let mut tape = Tape::new();
        let ve = propagate(&store, &params, &mut tape, &graphs, &cfg);
        let dd = (cfg.n_layers + 1) * cfg.dim;
        assert_eq!(tape.value(ve.u_inview_i).cols(), dd);
        assert_eq!(tape.value(ve.u_cross_i).cols(), dd);
        assert_eq!(tape.value(ve.u_hat_i).cols(), 2 * dd);
        assert_eq!(tape.value(ve.v_hat_p).cols(), 2 * dd);
        assert_eq!(tape.value(ve.u_hat_i).rows(), graphs.n_users());
        assert_eq!(tape.value(ve.v_hat_i).rows(), graphs.n_items());
    }

    #[test]
    fn views_differ_without_ablation() {
        let cfg = GbgcnConfig::test_config();
        let (store, params, graphs) = setup(&cfg);
        let mut tape = Tape::new();
        let ve = propagate(&store, &params, &mut tape, &graphs, &cfg);
        // Initiator- and participant-view user embeddings must differ
        // (different graphs drive the propagation).
        assert_ne!(tape.value(ve.u_inview_i), tape.value(ve.u_inview_p));
        assert_ne!(tape.value(ve.u_cross_i), tape.value(ve.u_cross_p));
    }

    #[test]
    fn user_ablation_collapses_user_views_only() {
        let cfg = GbgcnConfig {
            ablation: AblationMode::NoUserRoles,
            ..GbgcnConfig::test_config()
        };
        let (store, params, graphs) = setup(&cfg);
        let mut tape = Tape::new();
        let ve = propagate(&store, &params, &mut tape, &graphs, &cfg);
        // Propagated user levels are averaged; level 0 (shared raw) is
        // identical anyway, so the full concat must match across views.
        assert_eq!(tape.value(ve.u_inview_i), tape.value(ve.u_inview_p));
        assert_eq!(tape.value(ve.u_cross_i), tape.value(ve.u_cross_p));
        // Item views keep their role separation.
        assert_ne!(tape.value(ve.v_inview_i), tape.value(ve.v_inview_p));
    }

    #[test]
    fn full_ablation_collapses_both() {
        let cfg = GbgcnConfig {
            ablation: AblationMode::NoRoles,
            ..GbgcnConfig::test_config()
        };
        let (store, params, graphs) = setup(&cfg);
        let mut tape = Tape::new();
        let ve = propagate(&store, &params, &mut tape, &graphs, &cfg);
        assert_eq!(tape.value(ve.u_hat_i), tape.value(ve.u_hat_p));
        assert_eq!(tape.value(ve.v_hat_i), tape.value(ve.v_hat_p));
    }

    #[test]
    fn the_full_model_writes_its_levels_and_user_cross_sums_into_the_hats() {
        for ablation in [AblationMode::Full, AblationMode::NoRoles] {
            let cfg = GbgcnConfig {
                ablation,
                ..GbgcnConfig::test_config()
            };
            let (store, params, graphs) = setup(&cfg);
            let mut tape = Tape::new();
            let ve = propagate(&store, &params, &mut tape, &graphs, &cfg);
            let dd = (cfg.n_layers + 1) * cfg.dim;
            let in_hat = |v: Var, hat: Var, cols: std::ops::Range<usize>| {
                let ((table, at), (hat, whole)) = (tape.arc_window(v), tape.arc_window(hat));
                assert_eq!(whole, 0..2 * dd, "{ablation:?}: a hat is a whole table");
                Arc::ptr_eq(&table, &hat) && at == cols
            };
            for (inview, cross, hat) in [
                (ve.u_inview_i, ve.u_cross_i, ve.u_hat_i),
                (ve.u_inview_p, ve.u_cross_p, ve.u_hat_p),
            ] {
                assert!(in_hat(inview, hat, 0..dd), "{ablation:?}");
                let full = ablation == AblationMode::Full;
                assert_eq!(in_hat(cross, hat, dd..2 * dd), full, "{ablation:?}");
            }
            for (inview, cross, hat) in [
                (ve.v_inview_i, ve.v_cross_i, ve.v_hat_i),
                (ve.v_inview_p, ve.v_cross_p, ve.v_hat_p),
            ] {
                assert!(in_hat(inview, hat, 0..dd), "{ablation:?}");
                // The FC's own table: `act′` reads it on the way back.
                assert!(!in_hat(cross, hat, dd..2 * dd), "{ablation:?}");
            }
        }
    }

    #[test]
    fn separate_raw_registers_extra_tables() {
        let cfg = GbgcnConfig {
            separate_raw: true,
            ..GbgcnConfig::test_config()
        };
        let (store, params, _) = setup(&cfg);
        assert!(params.user_raw_p.is_some());
        assert!(params.item_raw_p.is_some());
        assert!(store.id("gbgcn.user.p").is_some());
    }

    #[test]
    fn forward_values_are_finite() {
        let cfg = GbgcnConfig::test_config();
        let (store, params, graphs) = setup(&cfg);
        let mut tape = Tape::new();
        let ve = propagate(&store, &params, &mut tape, &graphs, &cfg);
        for v in [ve.u_hat_i, ve.u_hat_p, ve.v_hat_i, ve.v_hat_p] {
            assert!(!tape.value(v).has_non_finite());
        }
    }
}
