//! Synthetic Beibei-like group-buying data generator.
//!
//! The paper's dataset is a proprietary crawl of the Beibei platform.
//! This module is the substitution the crate doc argues for: a latent-
//! factor simulator of a social e-commerce site that produces the same
//! record schema (`⟨initiator, item, participants⟩` + social network +
//! per-item thresholds) with matching shape statistics:
//!
//! * ≈77% of groups clinch (Table II: 721,605 / 932,896);
//! * social degree ≈ 2·748,233 / 190,080 ≈ 7.9 friends/user;
//! * ≈4.9 behaviors per user;
//! * Zipf-skewed item popularity (universal in e-commerce logs).
//!
//! Crucially, the generator plants the *mechanisms* the compared models
//! differ on, so the evaluation discriminates between them the same way
//! the production data does:
//!
//! 1. **Role-dependent preference** — each user has an initiator-role and
//!    a participant-role latent vector that differ by a controlled angle
//!    `role_divergence` (drives the multi-view ablation, Table V, and the
//!    embedding analysis, Figs. 5–6).
//! 2. **Social homophily** — users in the same community have correlated
//!    latents and are more likely to be friends (what SocialMF/DiffNet
//!    exploit).
//! 3. **Tie-strength-dependent joining** — a friend joins a group with
//!    probability `σ(join_scale · ⟨z_f^part, w_n⟩ + tie(u,f) + join_bias)`,
//!    so group success depends on *both* participants' interests and the
//!    initiator's influence — the signal GBGCN's cross-view propagation
//!    and double-pairwise loss are built to extract.

use crate::behavior::GroupBehavior;
use crate::dataset::Dataset;
use crate::events::EventLog;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Configuration of the synthetic generator.
#[derive(Clone, Debug)]
pub struct SynthConfig {
    /// Number of users `P`.
    pub n_users: usize,
    /// Number of items `Q`.
    pub n_items: usize,
    /// Dimensionality of the ground-truth latent space.
    pub latent_dim: usize,
    /// Number of latent communities (drives homophily).
    pub n_communities: usize,
    /// Target mean number of friends per user (Beibei ≈ 7.9).
    pub mean_friends: f64,
    /// Probability that a friendship is drawn inside the own community.
    pub social_homophily: f64,
    /// Target mean number of launched groups per user (Beibei ≈ 4.9).
    pub behaviors_per_user: f64,
    /// Minimum number of launches per user (emulates the paper's
    /// "filter out users with few interactions" preprocessing while
    /// keeping the id space compact; every user stays testable under
    /// leave-one-out).
    pub min_launches: usize,
    /// Fraction of a user's latent vector shared with the community
    /// centroid (0 = fully individual, 1 = pure community taste).
    pub taste_homophily: f32,
    /// Angular divergence between initiator-role and participant-role
    /// latents (0 = identical roles).
    pub role_divergence: f32,
    /// Inclusive range for per-item thresholds `t_n`.
    pub threshold_range: (u32, u32),
    /// Zipf exponent of item popularity.
    pub popularity_exponent: f64,
    /// Number of candidate items an initiator browses before launching.
    pub candidate_pool: usize,
    /// Scale of the affinity term in the join logit.
    pub join_scale: f32,
    /// Offset of the join logit; tunes the global success ratio.
    pub join_bias: f32,
    /// RNG seed; generation is fully deterministic given the config.
    pub seed: u64,
}

impl SynthConfig {
    /// Scaled-down Beibei-like default used by the experiment binaries:
    /// matches the proportions of Table II at ~1/95 scale so a full
    /// ten-model comparison runs on a laptop CPU.
    pub fn beibei_like() -> Self {
        Self {
            n_users: 2000,
            n_items: 400,
            latent_dim: 16,
            n_communities: 25,
            mean_friends: 7.9,
            social_homophily: 0.7,
            behaviors_per_user: 4.9,
            min_launches: 3,
            taste_homophily: 0.65,
            role_divergence: 0.7,
            threshold_range: (1, 2),
            popularity_exponent: 0.9,
            candidate_pool: 24,
            join_scale: 5.0,
            join_bias: -1.95,
            seed: 20210411,
        }
    }

    /// Larger configuration for the timing experiment (Table IV), where
    /// relative per-epoch cost matters more than model quality.
    pub fn beibei_large() -> Self {
        Self {
            n_users: 8000,
            n_items: 1500,
            ..Self::beibei_like()
        }
    }

    /// Miniature configuration for unit and integration tests.
    pub fn tiny() -> Self {
        Self {
            n_users: 220,
            n_items: 60,
            latent_dim: 8,
            n_communities: 6,
            mean_friends: 6.0,
            social_homophily: 0.7,
            behaviors_per_user: 4.0,
            min_launches: 3,
            taste_homophily: 0.65,
            role_divergence: 0.45,
            threshold_range: (1, 2),
            popularity_exponent: 0.9,
            candidate_pool: 12,
            join_scale: 3.0,
            // Calibrated so the tiny workload's success ratio sits at
            // Beibei's ~77% (Table II) under the workspace PRNG.
            join_bias: -2.0,
            seed: 7,
        }
    }

    /// Returns the config with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Generates a dataset according to `cfg`. Deterministic per config.
pub fn generate(cfg: &SynthConfig) -> Dataset {
    generate_with_events(cfg).0
}

/// Like [`generate`], additionally emitting the deal lifecycle behind
/// every behavior as an append-only [`EventLog`]: one `open` per launch,
/// one `join` per accepted friend (in browse order, before the stored
/// participant list is sorted), then `full` if the group clinched at the
/// item threshold or `expire` otherwise.
///
/// Event emission draws nothing from the RNG, so the returned dataset is
/// byte-identical to [`generate`]'s for the same config, and the log is
/// just as deterministic. Deal id `d` corresponds to `behaviors()[d]`.
pub fn generate_with_events(cfg: &SynthConfig) -> (Dataset, EventLog) {
    assert!(cfg.n_users >= 4, "need at least 4 users");
    assert!(cfg.n_items >= 2, "need at least 2 items");
    assert!(
        cfg.threshold_range.0 <= cfg.threshold_range.1,
        "bad threshold range"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // --- latent structure ---------------------------------------------
    let centers: Vec<Vec<f32>> = (0..cfg.n_communities)
        .map(|_| random_unit(cfg.latent_dim, &mut rng))
        .collect();
    let user_comm: Vec<usize> = (0..cfg.n_users)
        .map(|_| rng.gen_range(0..cfg.n_communities))
        .collect();
    let item_comm: Vec<usize> = (0..cfg.n_items)
        .map(|_| rng.gen_range(0..cfg.n_communities))
        .collect();

    let user_init: Vec<Vec<f32>> = (0..cfg.n_users)
        .map(|u| {
            mix(
                &centers[user_comm[u]],
                cfg.taste_homophily,
                cfg.latent_dim,
                &mut rng,
            )
        })
        .collect();
    let user_part: Vec<Vec<f32>> = user_init
        .iter()
        .map(|z| {
            let noise = random_unit(cfg.latent_dim, &mut rng);
            normalize(
                z.iter()
                    .zip(&noise)
                    .map(|(a, b)| a + cfg.role_divergence * b)
                    .collect(),
            )
        })
        .collect();
    let item_vec: Vec<Vec<f32>> = (0..cfg.n_items)
        .map(|i| mix(&centers[item_comm[i]], 0.7, cfg.latent_dim, &mut rng))
        .collect();

    // --- item popularity (Zipf over a random permutation) ---------------
    let mut ranks: Vec<usize> = (0..cfg.n_items).collect();
    ranks.shuffle(&mut rng);
    let mut pop_cdf = Vec::with_capacity(cfg.n_items);
    let mut acc = 0.0f64;
    let mut pop = vec![0.0f64; cfg.n_items];
    for (item, &rank) in ranks.iter().enumerate() {
        pop[item] = 1.0 / ((rank + 1) as f64).powf(cfg.popularity_exponent);
    }
    for &p in &pop {
        acc += p;
        pop_cdf.push(acc);
    }
    let total_pop = acc;

    // --- social network ---------------------------------------------------
    let mut comm_members: Vec<Vec<u32>> = vec![Vec::new(); cfg.n_communities];
    for (u, &c) in user_comm.iter().enumerate() {
        comm_members[c].push(u as u32);
    }
    let mut pair_set = std::collections::HashSet::new();
    let mut social_pairs = Vec::new();
    let target_edges = (cfg.mean_friends * cfg.n_users as f64 / 2.0).round() as usize;
    let mut guard = 0usize;
    while social_pairs.len() < target_edges && guard < target_edges * 50 {
        guard += 1;
        let a = rng.gen_range(0..cfg.n_users) as u32;
        let b = if rng.gen_bool(cfg.social_homophily) {
            let members = &comm_members[user_comm[a as usize]];
            members[rng.gen_range(0..members.len())]
        } else {
            rng.gen_range(0..cfg.n_users) as u32
        };
        if a == b {
            continue;
        }
        let key = (a.min(b), a.max(b));
        if pair_set.insert(key) {
            social_pairs.push(key);
        }
    }

    // Friend lookup for the join process.
    let mut friends: Vec<Vec<u32>> = vec![Vec::new(); cfg.n_users];
    for &(a, b) in &social_pairs {
        friends[a as usize].push(b);
        friends[b as usize].push(a);
    }

    // --- per-item thresholds ------------------------------------------------
    let item_thresholds: Vec<u32> = (0..cfg.n_items)
        .map(|_| rng.gen_range(cfg.threshold_range.0..=cfg.threshold_range.1))
        .collect();

    // --- behaviors ---------------------------------------------------------
    // Activity follows a heavy-ish tail: a_u = exp(N(0, 0.6)), then launch
    // counts are scaled to the target mean with a per-user floor.
    let activities: Vec<f64> = (0..cfg.n_users)
        .map(|_| gaussian(&mut rng, 0.0, 0.6).exp())
        .collect();
    let mean_act = activities.iter().sum::<f64>() / cfg.n_users as f64;

    let mut behaviors = Vec::new();
    let mut log = EventLog::new();
    for u in 0..cfg.n_users {
        let expect = cfg.behaviors_per_user * activities[u] / mean_act;
        let n_launch = (expect + rng.gen_range(0.0..1.0)).floor() as usize;
        let n_launch = n_launch.max(cfg.min_launches);
        for _ in 0..n_launch {
            let item = pick_item(cfg, &user_init[u], &item_vec, &pop_cdf, total_pop, &mut rng);
            let tn = item_thresholds[item as usize] as usize;
            // Friends browse the shared group in random order; the group
            // closes as soon as it clinches (t_n joiners), matching how
            // Pinduoduo-style deals work. The lifecycle log mirrors the
            // process event by event — open, joins in browse order, then
            // full/expire — without consuming any randomness, so the
            // dataset is unchanged by the recording.
            let deal = log.open(item, u as u32, item_thresholds[item as usize]);
            let mut order = friends[u].clone();
            order.shuffle(&mut rng);
            let mut participants = Vec::new();
            for f in order {
                if participants.len() >= tn {
                    break;
                }
                let affinity = dot(&user_part[f as usize], &item_vec[item as usize]);
                let tie = tie_strength(u as u32, f, cfg.seed);
                let logit = cfg.join_scale * affinity + tie + cfg.join_bias;
                if rng.gen_bool(sigmoid64(logit as f64)) {
                    log.join(deal, f);
                    participants.push(f);
                }
            }
            if participants.len() >= tn {
                log.full(deal);
            } else {
                log.expire(deal);
            }
            participants.sort_unstable();
            behaviors.push(GroupBehavior::new(u as u32, item, participants));
        }
    }

    let data = Dataset::new(
        cfg.n_users,
        cfg.n_items,
        behaviors,
        social_pairs,
        item_thresholds,
    );
    (data, log)
}

// --- helpers ----------------------------------------------------------------

fn random_unit(dim: usize, rng: &mut StdRng) -> Vec<f32> {
    normalize((0..dim).map(|_| gaussian(rng, 0.0, 1.0) as f32).collect())
}

/// `homophily * center + (1 - homophily) * noise`, normalized.
fn mix(center: &[f32], homophily: f32, dim: usize, rng: &mut StdRng) -> Vec<f32> {
    let noise = random_unit(dim, rng);
    normalize(
        center
            .iter()
            .zip(&noise)
            .map(|(c, n)| homophily * c + (1.0 - homophily) * n)
            .collect(),
    )
}

fn normalize(mut v: Vec<f32>) -> Vec<f32> {
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        v.iter_mut().for_each(|x| *x /= norm);
    }
    v
}

fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn gaussian(rng: &mut StdRng, mean: f64, std: f64) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    mean + std * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

fn sigmoid64(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Deterministic pseudo-random tie strength in roughly N(0, 0.5) for an
/// unordered user pair, derived by hashing — stable across the whole
/// generation process without storing a P x P matrix.
fn tie_strength(a: u32, b: u32, seed: u64) -> f32 {
    let (lo, hi) = (a.min(b) as u64, a.max(b) as u64);
    let mut h =
        seed ^ (lo.wrapping_mul(0x9E3779B97F4A7C15)) ^ (hi.wrapping_mul(0xBF58476D1CE4E5B9));
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58476D1CE4E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D049BB133111EB);
    h ^= h >> 31;
    let unit = (h as f64) / (u64::MAX as f64); // in [0, 1]
    ((unit - 0.5) * 2.0) as f32 // in [-1, 1], std ≈ 0.58
}

/// Samples `candidate_pool` items by popularity and returns the one with
/// the highest noisy affinity to the initiator (Gumbel-max ≈ softmax
/// choice over the browsed candidates).
fn pick_item(
    cfg: &SynthConfig,
    user_vec: &[f32],
    item_vec: &[Vec<f32>],
    pop_cdf: &[f64],
    total_pop: f64,
    rng: &mut StdRng,
) -> u32 {
    let mut best = 0u32;
    let mut best_score = f32::NEG_INFINITY;
    for _ in 0..cfg.candidate_pool.max(1) {
        let r = rng.gen_range(0.0..total_pop);
        let idx = pop_cdf.partition_point(|&c| c < r).min(item_vec.len() - 1);
        let gumbel = -(-(rng.gen_range(f64::EPSILON..1.0)).ln()).ln() as f32;
        let score = 2.0 * dot(user_vec, &item_vec[idx]) + 0.5 * gumbel;
        if score > best_score {
            best_score = score;
            best = idx as u32;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let cfg = SynthConfig::tiny();
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.behaviors(), b.behaviors());
        assert_eq!(a.social_pairs(), b.social_pairs());
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&SynthConfig::tiny());
        let b = generate(&SynthConfig::tiny().with_seed(99));
        assert_ne!(a.behaviors(), b.behaviors());
    }

    #[test]
    fn shape_statistics_match_targets() {
        let cfg = SynthConfig::tiny();
        let d = generate(&cfg);
        let stats = d.stats();

        // Success ratio in a plausible band around Beibei's 77%.
        let ratio = stats.n_successful as f64 / stats.n_behaviors as f64;
        assert!((0.45..=0.95).contains(&ratio), "success ratio {ratio}");

        // Mean friends within 40% of the target.
        assert!(
            (stats.mean_friends - cfg.mean_friends).abs() < 0.4 * cfg.mean_friends,
            "mean friends {} vs target {}",
            stats.mean_friends,
            cfg.mean_friends
        );

        // Every user launches at least `min_launches` groups.
        let mut launches = vec![0usize; d.n_users()];
        for b in d.behaviors() {
            launches[b.initiator as usize] += 1;
        }
        assert!(launches.iter().all(|&l| l >= cfg.min_launches));
    }

    #[test]
    fn participants_are_friends_of_initiator() {
        let d = generate(&SynthConfig::tiny());
        for b in d.behaviors() {
            for &p in &b.participants {
                assert!(
                    d.social().are_friends(b.initiator, p),
                    "participant {} of behavior by {} is not a friend",
                    p,
                    b.initiator
                );
            }
        }
    }

    #[test]
    fn groups_close_at_threshold() {
        let d = generate(&SynthConfig::tiny());
        for b in d.behaviors() {
            assert!(
                b.participants.len() <= d.threshold(b.item) as usize,
                "group overfilled beyond threshold"
            );
        }
    }

    #[test]
    fn popularity_is_skewed() {
        let d = generate(&SynthConfig::tiny());
        let mut counts = vec![0usize; d.n_items()];
        for b in d.behaviors() {
            counts[b.item as usize] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: usize = counts.iter().sum();
        let top_decile: usize = counts.iter().take(d.n_items() / 10).sum();
        assert!(
            top_decile as f64 >= 0.2 * total as f64,
            "top-10% items should capture a disproportionate share, got {}/{}",
            top_decile,
            total
        );
    }

    #[test]
    fn event_log_mirrors_behaviors_exactly() {
        use crate::events::DealEventKind;
        let cfg = SynthConfig::tiny();
        let (d, log) = generate_with_events(&cfg);
        assert_eq!(log.n_deals(), d.behaviors().len());

        for (deal, b) in d.behaviors().iter().enumerate() {
            let deal = deal as u32;
            assert_eq!(log.deal_item(deal), b.item, "deal {deal}");
            assert_eq!(
                log.deal_joiners(deal) as usize,
                b.participants.len(),
                "deal {deal}"
            );
        }

        // Replay: joins per deal are the behavior's participants (as a
        // set — the log keeps browse order, the behavior sorts), and the
        // terminal event matches the clinch condition.
        let mut joined: Vec<Vec<u32>> = vec![Vec::new(); log.n_deals()];
        let mut terminal: Vec<Option<bool>> = vec![None; log.n_deals()];
        for ev in log.events() {
            match ev.kind {
                DealEventKind::Open {
                    item, initiator, ..
                } => {
                    let b = &d.behaviors()[ev.deal as usize];
                    assert_eq!((item, initiator), (b.item, b.initiator));
                }
                DealEventKind::Join { user } => joined[ev.deal as usize].push(user),
                DealEventKind::Full => terminal[ev.deal as usize] = Some(true),
                DealEventKind::Expire => terminal[ev.deal as usize] = Some(false),
            }
        }
        for (deal, b) in d.behaviors().iter().enumerate() {
            joined[deal].sort_unstable();
            assert_eq!(joined[deal], b.participants, "deal {deal} joiners");
            let clinched = b.participants.len() >= d.threshold(b.item) as usize;
            assert_eq!(terminal[deal], Some(clinched), "deal {deal} terminal");
        }
    }

    #[test]
    fn event_emission_never_perturbs_the_dataset() {
        let cfg = SynthConfig::tiny();
        let (with_events, _) = generate_with_events(&cfg);
        let plain = generate(&cfg);
        assert_eq!(with_events.behaviors(), plain.behaviors());
        assert_eq!(with_events.social_pairs(), plain.social_pairs());
    }

    #[test]
    fn tie_strength_symmetric_and_bounded() {
        for (a, b) in [(1u32, 2u32), (7, 3), (100, 100)] {
            let t1 = tie_strength(a, b, 42);
            let t2 = tie_strength(b, a, 42);
            assert_eq!(t1, t2);
            assert!((-1.0..=1.0).contains(&t1));
        }
    }
}
