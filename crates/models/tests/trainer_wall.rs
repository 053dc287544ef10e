//! Bitwise wall for the baseline trainers: every zoo entry, trained on the
//! tiny synthetic workload at a fixed seed, must reproduce the exact
//! `final_loss` and every `score_items` bit recorded before the eight
//! epoch loops became one driver. `neg_ratio` is 2 so the per-example
//! negative repeat runs. A deliberate numerics change re-records the
//! constants and says so; a refactor never touches them.

use gb_data::convert::InteractionKind;
use gb_data::synth::{generate, SynthConfig};
use gb_data::Dataset;
use gb_models::{
    Agree, DiffNet, Gbmf, GbmfConfig, Mf, Ncf, Ngcf, Recommender, Sigr, SocialMf, TrainConfig,
};

/// FNV-1a over the little-endian bytes of each hashed `f32`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn f32(&mut self, x: f32) {
        for b in x.to_bits().to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn cfg() -> TrainConfig {
    TrainConfig {
        dim: 8,
        epochs: 2,
        batch_size: 64,
        neg_ratio: 2,
        ..Default::default()
    }
}

fn gbmf_cfg() -> GbmfConfig {
    GbmfConfig {
        base: cfg(),
        alpha: 0.5,
    }
}

/// Table III's baseline zoo, in table order, at the wall's config.
fn zoo() -> Vec<Box<dyn Recommender>> {
    vec![
        Box::new(Mf::new(cfg(), InteractionKind::InitiatorOnly)),
        Box::new(Mf::new(cfg(), InteractionKind::BothRoles)),
        Box::new(Ncf::new(cfg())),
        Box::new(Ngcf::new(cfg())),
        Box::new(SocialMf::new(cfg(), 0.05)),
        Box::new(DiffNet::new(cfg())),
        Box::new(Agree::new(cfg())),
        Box::new(Sigr::new(cfg())),
        Box::new(Gbmf::new(gbmf_cfg())),
    ]
}

/// Hash of `final_loss` and every user × item score after `fit`.
fn fit_fingerprint(model: &mut dyn Recommender, d: &Dataset) -> u64 {
    let report = model.fit(d);
    let mut h = Fnv::new();
    h.f32(report.final_loss);
    let items: Vec<u32> = (0..d.n_items() as u32).collect();
    for user in 0..d.n_users() as u32 {
        model
            .score_items(user, &items)
            .into_iter()
            .for_each(|s| h.f32(s));
    }
    h.0
}

#[test]
fn every_zoo_entry_trains_to_its_pinned_bits() {
    let d = generate(&SynthConfig::tiny());
    let got: Vec<(String, u64)> = zoo()
        .into_iter()
        .map(|mut m| {
            let fp = fit_fingerprint(m.as_mut(), &d);
            (m.name().to_string(), fp)
        })
        .collect();
    let want: Vec<(String, u64)> = [
        ("MF(oi)", 0x8e1c_e147_0774_ee11),
        ("MF", 0x0e12_d8ba_d040_1b2c),
        ("NCF", 0x6c86_2c7f_4570_649d),
        ("NGCF", 0xe5c1_07a5_b2a4_c3f6),
        ("SocialMF", 0xa78a_8c6f_3770_e7a5),
        ("DiffNet", 0x28de_2bb2_9e1d_7013),
        ("AGREE", 0x2257_4a8b_cb48_ab57),
        ("SIGR", 0xac6c_10fc_66cd_40b2),
        ("GBMF", 0x0dab_a2c3_bd31_6619),
    ]
    .into_iter()
    .map(|(n, fp)| (n.to_string(), fp))
    .collect();
    assert_eq!(got, want);
}
