//! GBGCN hyper-parameters.

/// Which multi-view components are ablated (Table V).
///
/// The paper's ablation replaces the two views' embeddings with their
/// average at the output of every propagation layer, "without reducing
/// the capacity of the model".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AblationMode {
    /// The full GBGCN model.
    Full,
    /// Average the item embeddings across views ("Without Item Roles").
    NoItemRoles,
    /// Average the user embeddings across views ("Without User Roles").
    NoUserRoles,
    /// Average both ("Without Item and User Roles").
    NoRoles,
}

impl AblationMode {
    /// Whether user-view embeddings are averaged.
    pub(crate) fn ablate_users(self) -> bool {
        matches!(self, AblationMode::NoUserRoles | AblationMode::NoRoles)
    }

    /// Whether item-view embeddings are averaged.
    pub(crate) fn ablate_items(self) -> bool {
        matches!(self, AblationMode::NoItemRoles | AblationMode::NoRoles)
    }

    /// Display name matching Table V's rows.
    pub fn label(self) -> &'static str {
        match self {
            AblationMode::Full => "GBGCN",
            AblationMode::NoItemRoles => "Without Item Roles",
            AblationMode::NoUserRoles => "Without User Roles",
            AblationMode::NoRoles => "Without Item and User Roles",
        }
    }
}

/// Activation `σ(·)` of the cross-view FC transforms (the paper leaves
/// the concrete choice to the implementation; tanh is the default here —
/// zero-centered, so the Fig. 5 cosine analysis can show genuine
/// view divergence).
///
/// `Tanh` is `gb_tensor::kernels::tanh_inplace`, an approximant computed
/// in this workspace (within 2 ulp of the exact value for every `f32`,
/// worst measured 1.33), not the host libm's `tanhf`: a trained model's
/// bits do not depend on the machine's C library.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// Hyperbolic tangent (default).
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// LeakyReLU with slope 0.2.
    LeakyRelu,
}

/// Knobs of the sharded-parallel trainer
/// ([`crate::GbgcnModel::fit_parallel`]).
///
/// `n_shards` is part of the numerical recipe: each mini-batch is split
/// into that many deterministic sub-batches whose gradients are reduced
/// in shard order before a single optimizer step. `n_threads` is pure
/// scheduling — any thread count produces bit-identical parameters for a
/// fixed shard count.
#[derive(Clone, Debug)]
pub struct ParallelTrainConfig {
    /// Gradient shards per mini-batch (≥ 1).
    pub n_shards: usize,
    /// Worker threads computing shard gradients (≥ 1; clamped to the
    /// shard count).
    pub n_threads: usize,
    /// Publish a snapshot to the serving handle every this many
    /// fine-tuning epochs (0 = only once, after training finishes).
    pub refresh_every: usize,
}

impl Default for ParallelTrainConfig {
    /// Four shards (a fixed constant — shard count is part of the
    /// numerical recipe, so it must not follow the host's core count or
    /// results would differ across machines) scheduled on every
    /// available core.
    fn default() -> Self {
        Self {
            n_shards: 4,
            n_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            refresh_every: 0,
        }
    }
}

impl ParallelTrainConfig {
    /// One shard on one thread: the exact serial recipe.
    pub fn serial() -> Self {
        Self {
            n_shards: 1,
            n_threads: 1,
            refresh_every: 0,
        }
    }

    /// `n` shards on `n` threads.
    pub fn with_threads(n: usize) -> Self {
        Self {
            n_shards: n.max(1),
            n_threads: n.max(1),
            refresh_every: 0,
        }
    }

    /// Same decomposition, different thread count — the configuration
    /// pair the determinism tests compare.
    pub fn scheduled_on(mut self, threads: usize) -> Self {
        self.n_threads = threads.max(1);
        self
    }

    /// Sets the snapshot refresh cadence (in fine-tuning epochs).
    pub fn refresh_every(mut self, epochs: usize) -> Self {
        self.refresh_every = epochs;
        self
    }
}

/// Full hyper-parameter set of GBGCN, mirroring Sec. IV-A.2.
#[derive(Clone, Debug)]
pub struct GbgcnConfig {
    /// Embedding size `d` (paper: 32).
    pub dim: usize,
    /// In-view propagation depth `L` (paper: 2).
    pub n_layers: usize,
    /// Role coefficient `α` of Eq. 9 (paper's best: 0.6).
    pub alpha: f32,
    /// Loss coefficient `β` of Eq. 10 (paper's best: 0.05).
    pub beta: f32,
    /// L2 regularization coefficient on batch raw embeddings.
    pub l2: f32,
    /// Social-regularization coefficient (the term of SocialMF \[1\] the
    /// paper adds "for better learning").
    pub social_reg: f32,
    /// Mini-batch size in behaviors (paper: 4096 on full Beibei).
    pub batch_size: usize,
    /// Negative items sampled per behavior (paper: 1).
    pub neg_ratio: usize,
    /// Adam pre-training epochs on the propagation-free model.
    pub pretrain_epochs: usize,
    /// Adam pre-training learning rate (paper searches 1e-2..1e-5).
    pub pretrain_lr: f32,
    /// SGD fine-tuning epochs on the full model.
    pub finetune_epochs: usize,
    /// SGD fine-tuning learning rate (paper searches {10, 3, 1, 0.3};
    /// scaled here along with the dataset).
    pub finetune_lr: f32,
    /// Cross-view activation.
    pub activation: Activation,
    /// Table V ablation switch.
    pub ablation: AblationMode,
    /// Extension ablation, not in the paper: use per-view raw embeddings
    /// instead of the paper's shared raw embeddings.
    pub separate_raw: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GbgcnConfig {
    fn default() -> Self {
        Self {
            dim: 32,
            n_layers: 2,
            alpha: 0.6,
            beta: 0.05,
            l2: 1e-5,
            social_reg: 1e-4,
            batch_size: 1024,
            neg_ratio: 1,
            pretrain_epochs: 20,
            pretrain_lr: 5e-3,
            finetune_epochs: 20,
            finetune_lr: 0.3,
            activation: Activation::Tanh,
            ablation: AblationMode::Full,
            separate_raw: false,
            seed: 42,
        }
    }
}

impl GbgcnConfig {
    /// Config with a different role coefficient α.
    pub fn with_alpha(mut self, alpha: f32) -> Self {
        self.alpha = alpha;
        self
    }

    /// Config with a different loss coefficient β.
    pub fn with_beta(mut self, beta: f32) -> Self {
        self.beta = beta;
        self
    }

    /// Config with an ablation mode.
    pub fn with_ablation(mut self, ablation: AblationMode) -> Self {
        self.ablation = ablation;
        self
    }

    /// Config with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Small, fast configuration for unit tests.
    pub fn test_config() -> Self {
        Self {
            dim: 8,
            n_layers: 2,
            batch_size: 64,
            pretrain_epochs: 5,
            pretrain_lr: 0.01,
            finetune_epochs: 5,
            finetune_lr: 0.1,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_flags() {
        assert!(!AblationMode::Full.ablate_users());
        assert!(!AblationMode::Full.ablate_items());
        assert!(AblationMode::NoUserRoles.ablate_users());
        assert!(!AblationMode::NoUserRoles.ablate_items());
        assert!(AblationMode::NoItemRoles.ablate_items());
        assert!(AblationMode::NoRoles.ablate_users() && AblationMode::NoRoles.ablate_items());
    }

    #[test]
    fn labels_match_table_v() {
        assert_eq!(AblationMode::Full.label(), "GBGCN");
        assert_eq!(AblationMode::NoItemRoles.label(), "Without Item Roles");
        assert_eq!(AblationMode::NoUserRoles.label(), "Without User Roles");
        assert_eq!(AblationMode::NoRoles.label(), "Without Item and User Roles");
    }

    #[test]
    fn builder_methods_compose() {
        let cfg = GbgcnConfig::default()
            .with_alpha(0.3)
            .with_beta(0.2)
            .with_ablation(AblationMode::NoRoles)
            .with_seed(7);
        assert_eq!(cfg.alpha, 0.3);
        assert_eq!(cfg.beta, 0.2);
        assert_eq!(cfg.ablation, AblationMode::NoRoles);
        assert_eq!(cfg.seed, 7);
    }

    #[test]
    fn paper_defaults() {
        let cfg = GbgcnConfig::default();
        assert_eq!(cfg.dim, 32);
        assert_eq!(cfg.n_layers, 2);
        assert!((cfg.alpha - 0.6).abs() < 1e-6);
        assert!((cfg.beta - 0.05).abs() < 1e-6);
    }
}
