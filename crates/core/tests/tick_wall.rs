//! Bitwise wall for the streaming tick and the sharded trainer: the
//! exported tables and the checkpoint bytes after (a) a chain of six
//! one-batch ticks in the freshness recipe and (b) one pre-train +
//! fine-tune `fit_parallel` must reproduce the FNV-1a fingerprints
//! recorded before the reverse sweep learned row-sparse cotangents.
//!
//! The other walls (warm == cold, compact == dense, parallel == serial)
//! compare the tape with itself; this one holds it to recorded bits. The
//! ticks touch fewer than half of the users and items, so the row-sparse
//! backward runs; the 64-deal batches of (b) touch more than half once
//! their four shards merge, so the densify-on-merge path runs too. A third
//! set of chains runs over a history prefix so sparse that over a quarter
//! of every forward's FC input rows are empty-segment zeros, a fourth
//! under the configurations that change the propagated tables' layout
//! (separate raw tables, one or three layers), and one fingerprint covers
//! the `embedding_analysis` tables after a chain. A deliberate numerics
//! change re-records the constants and says so; a refactor or an
//! optimisation never touches them.

use gb_core::{AblationMode, GbgcnConfig, GbgcnModel, ParallelTrainConfig};
use gb_data::synth::{generate, SynthConfig};
use gb_data::Dataset;
use gb_models::SnapshotSource;
use gb_tensor::Matrix;

/// FNV-1a over bytes; `f32`s hash as their little-endian bits.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn matrix(&mut self, m: &Matrix) {
        m.as_slice()
            .iter()
            .for_each(|&x| self.bytes(&x.to_bits().to_le_bytes()));
    }
}

/// Hash of `export_snapshot`'s four tables, then `save_checkpoint`'s bytes.
fn fingerprint(model: &GbgcnModel) -> u64 {
    let snap = model.export_snapshot();
    let mut h = Fnv::new();
    for m in [
        snap.user_own(),
        snap.user_social(),
        snap.item_own(),
        snap.item_social(),
    ] {
        h.matrix(m);
    }
    let mut checkpoint = Vec::new();
    model
        .save_checkpoint(&mut checkpoint)
        .expect("checkpoint into memory");
    h.bytes(&checkpoint);
    h.0
}

const TICK_DEALS: usize = 8;
const N_TICKS: usize = 6;

/// `n_shards` shards on one thread, as the freshness writer trains.
fn par(n_shards: usize) -> ParallelTrainConfig {
    ParallelTrainConfig {
        n_shards,
        n_threads: 1,
        refresh_every: 0,
    }
}

/// Users a batch of `deals` reads: initiators, participants, and the
/// friends of failed initiators (the reversed pairs).
fn touched_users(d: &Dataset, deals: &Dataset) -> Vec<u32> {
    let mut users: Vec<u32> = deals
        .behaviors()
        .iter()
        .flat_map(|b| {
            let friends = if deals.is_successful(b) {
                &[][..]
            } else {
                d.social().friends(b.initiator)
            };
            std::iter::once(b.initiator)
                .chain(b.participants.iter().copied())
                .chain(friends.iter().copied())
        })
        .collect();
    users.sort_unstable();
    users.dedup();
    users
}

/// The tick model over the history (every behavior before the last six
/// ticks), after six one-batch ticks of the held-back deals.
fn tick_chain(d: &Dataset, cfg: GbgcnConfig, n_shards: usize) -> u64 {
    fingerprint(&tick_model(d, cfg, n_shards))
}

/// [`tick_chain`]'s model itself.
fn tick_model(d: &Dataset, cfg: GbgcnConfig, n_shards: usize) -> GbgcnModel {
    tick_model_after(d, d.behaviors().len() - N_TICKS * TICK_DEALS, cfg, n_shards)
}

/// The tick model over the first `n_hist` behaviors, after six one-batch
/// ticks of the deals that follow them.
fn tick_chain_after(d: &Dataset, n_hist: usize, cfg: GbgcnConfig, n_shards: usize) -> u64 {
    fingerprint(&tick_model_after(d, n_hist, cfg, n_shards))
}

/// [`tick_chain_after`]'s model itself.
fn tick_model_after(d: &Dataset, n_hist: usize, cfg: GbgcnConfig, n_shards: usize) -> GbgcnModel {
    let hist = d.with_behaviors(d.behaviors()[..n_hist].to_vec());
    let mut model = GbgcnModel::new(cfg, &hist);
    for k in 0..N_TICKS {
        let lo = n_hist + k * TICK_DEALS;
        let deals = hist.with_behaviors(d.behaviors()[lo..lo + TICK_DEALS].to_vec());
        assert!(
            2 * touched_users(d, &deals).len() < d.n_users(),
            "tick {k} touches half the users: the wall would miss the row-sparse path"
        );
        model.fit_parallel(&deals, &par(n_shards), None);
    }
    model
}

/// The freshness recipe: one fine-tune step per tick of [`TICK_DEALS`].
fn tick_config() -> GbgcnConfig {
    GbgcnConfig {
        pretrain_epochs: 0,
        finetune_epochs: 1,
        batch_size: TICK_DEALS,
        ..GbgcnConfig::default()
    }
}

#[test]
fn tick_chains_keep_their_pinned_bits() {
    let d = generate(&SynthConfig::tiny());
    let default_reg = GbgcnConfig::default().social_reg;
    let mut got = Vec::new();
    for ablation in [
        AblationMode::Full,
        AblationMode::NoItemRoles,
        AblationMode::NoUserRoles,
        AblationMode::NoRoles,
    ] {
        for social_reg in [default_reg, 0.0] {
            for n_shards in [1, 4] {
                let cfg = GbgcnConfig {
                    social_reg,
                    ablation,
                    ..tick_config()
                };
                // Labels name the activation, as when it was a setting.
                let label = format!("{ablation:?}/reg {social_reg}/Tanh/x{n_shards}");
                got.push((label, tick_chain(&d, cfg, n_shards)));
            }
        }
    }
    let want: Vec<(String, u64)> = [
        ("Full/reg 0.0001/Tanh/x1", 0x2bd6_e525_c17b_3d7a),
        ("Full/reg 0.0001/Tanh/x4", 0x9954_c7ad_b227_31ae),
        ("Full/reg 0/Tanh/x1", 0xf836_0de4_8c15_560d),
        ("Full/reg 0/Tanh/x4", 0xfee2_5395_b13b_6991),
        ("NoItemRoles/reg 0.0001/Tanh/x1", 0x9d4f_2bd7_fb75_20bf),
        ("NoItemRoles/reg 0.0001/Tanh/x4", 0xcf3e_dd53_8b87_ba63),
        ("NoItemRoles/reg 0/Tanh/x1", 0x6e19_449b_eeb8_8668),
        ("NoItemRoles/reg 0/Tanh/x4", 0x662c_408c_891f_0a23),
        ("NoUserRoles/reg 0.0001/Tanh/x1", 0x537e_033f_b2cd_4b7b),
        ("NoUserRoles/reg 0.0001/Tanh/x4", 0x3cc8_7cea_ab13_249a),
        ("NoUserRoles/reg 0/Tanh/x1", 0xda14_6a3e_843f_05ee),
        ("NoUserRoles/reg 0/Tanh/x4", 0x7e31_b99f_d026_4d7d),
        ("NoRoles/reg 0.0001/Tanh/x1", 0x8349_391f_294e_1f34),
        ("NoRoles/reg 0.0001/Tanh/x4", 0x585f_5129_1729_584f),
        ("NoRoles/reg 0/Tanh/x1", 0xcb82_dade_7dce_6bdc),
        ("NoRoles/reg 0/Tanh/x4", 0x81fd_102a_9722_f234),
    ]
    .into_iter()
    .map(|(n, fp)| (n.to_string(), fp))
    .collect();
    assert_eq!(got, want);
}

/// Share of the six cross-view FC inputs' rows (Eqs. 4–7) that are
/// empty-segment means, so exactly `+0.0` whatever the parameters: users
/// who launched nothing, shared to nobody, joined nothing or were shared
/// to by nobody, and items nobody launched or joined.
fn structurally_zero_fc_row_share(hist: &Dataset) -> f64 {
    let g = hist.build_hetero();
    let segmentations = [
        g.initiator.user_to_item(),
        g.share.out_csr(),
        g.participant.user_to_item(),
        g.share.in_csr(),
        g.initiator.item_to_user(),
        g.participant.item_to_user(),
    ];
    let (mut empty, mut rows) = (0, 0);
    for csr in segmentations {
        let (offsets, _) = csr.segments();
        empty += offsets.windows(2).filter(|w| w[0] == w[1]).count();
        rows += offsets.len() - 1;
    }
    empty as f64 / rows as f64
}

/// The freshness chain over a history prefix — the first half of the
/// behaviors — whose graphs leave many users without a launch or a join:
/// 29 % of the FC input rows are empty-segment zeros here, against 4 %
/// over the longer history above. Constants recorded before the forward
/// learned to skip zero rows.
#[test]
fn tick_chains_over_a_sparse_history_keep_their_pinned_bits() {
    let d = generate(&SynthConfig::tiny());
    let n_hist = d.behaviors().len() / 2;
    let hist = d.with_behaviors(d.behaviors()[..n_hist].to_vec());
    let share = structurally_zero_fc_row_share(&hist);
    assert!(
        share >= 0.2,
        "only {share:.3} of the FC input rows are structurally zero"
    );
    let mut got = Vec::new();
    for n_shards in [1, 4] {
        let label = format!("Tanh/x{n_shards}");
        got.push((label, tick_chain_after(&d, n_hist, tick_config(), n_shards)));
    }
    let want: Vec<(String, u64)> = [
        ("Tanh/x1", 0xff64_612f_5761_f806),
        ("Tanh/x4", 0x80ff_64bc_40e2_b48f),
    ]
    .into_iter()
    .map(|(n, fp)| (n.to_string(), fp))
    .collect();
    assert_eq!(got, want, "structurally zero share {share:.3}");
}

/// Chains under the configurations that change how the propagated tables
/// are laid out: a participant-view raw table of its own (level 0 of each
/// view's tables comes from a different parameter) and one or three
/// propagation layers (hat tables `4d` and `8d` wide). Constants recorded
/// before the propagation wrote its levels straight into the hat tables.
#[test]
fn tick_chains_over_other_table_layouts_keep_their_pinned_bits() {
    let d = generate(&SynthConfig::tiny());
    let layouts = [
        (
            "separate_raw",
            GbgcnConfig {
                separate_raw: true,
                ..tick_config()
            },
        ),
        (
            "1 layer",
            GbgcnConfig {
                n_layers: 1,
                ..tick_config()
            },
        ),
        (
            "3 layers",
            GbgcnConfig {
                n_layers: 3,
                ..tick_config()
            },
        ),
    ];
    let mut got = Vec::new();
    for (name, cfg) in layouts {
        for n_shards in [1, 4] {
            got.push((
                format!("{name}/x{n_shards}"),
                tick_chain(&d, cfg.clone(), n_shards),
            ));
        }
    }
    let want: Vec<(String, u64)> = [
        ("separate_raw/x1", 0x77fa_4d7b_3633_40cd),
        ("separate_raw/x4", 0xc361_6a3c_0811_a9fc),
        ("1 layer/x1", 0x1395_3f2f_635d_fe18),
        ("1 layer/x4", 0xd0a9_181f_8396_1084),
        ("3 layers/x1", 0xd273_b503_2cb0_b8fc),
        ("3 layers/x4", 0x014e_06d8_7c0a_c6bb),
    ]
    .into_iter()
    .map(|(n, fp)| (n.to_string(), fp))
    .collect();
    assert_eq!(got, want);
}

/// The twelve `embedding_analysis` tables after a chain — the in-view and
/// cross-view halves of the hat tables as well as the hats — under the
/// full model and under both role ablations, whose averaged levels are
/// copied into each view's tables.
#[test]
fn embedding_analysis_after_a_tick_chain_keeps_its_pinned_bits() {
    let d = generate(&SynthConfig::tiny());
    let mut got = Vec::new();
    for ablation in [AblationMode::Full, AblationMode::NoRoles] {
        let cfg = GbgcnConfig {
            ablation,
            ..tick_config()
        };
        let a = tick_model(&d, cfg, 4).embedding_analysis();
        let mut h = Fnv::new();
        for m in [
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
        ] {
            h.matrix(m);
        }
        got.push((format!("{ablation:?}"), h.0));
    }
    let want: Vec<(String, u64)> = [
        ("Full", 0x1e52_c85c_abcd_e261),
        ("NoRoles", 0xa8d4_22e3_6b92_41d9),
    ]
    .into_iter()
    .map(|(n, fp)| (n.to_string(), fp))
    .collect();
    assert_eq!(got, want);
}

#[test]
fn a_pretrain_and_finetune_fit_keeps_its_pinned_bits() {
    let d = generate(&SynthConfig::tiny());
    let cfg = GbgcnConfig {
        pretrain_epochs: 2,
        finetune_epochs: 2,
        batch_size: 64,
        ..GbgcnConfig::default()
    };
    let mut model = GbgcnModel::new(cfg, &d);
    model.fit_parallel(&d, &par(4), None);
    assert_eq!(fingerprint(&model), 0x4ddc_fedb_4f11_ad0f);
}
