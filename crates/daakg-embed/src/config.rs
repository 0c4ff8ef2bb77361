//! Hyper-parameters for embedding training.

use crate::model::ModelKind;
use daakg_graph::DaakgError;

/// How the trainer executes a mini-batch step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TrainMode {
    /// The retained reference path: one tape per batch with full parameter
    /// tables bound as leaves, dense gradients, dense Adam. This is the
    /// verification oracle the sparse path is checked against.
    Dense,
    /// The fast path: batches split into
    /// [`EmbedConfig::effective_threads`] shards, which the calling
    /// thread's `daakg-parallel` worker budget runs (in line at a budget
    /// of 1); each shard builds its own tape over shared read-only
    /// parameters via external gathers, shard gradients merge as sparse
    /// row-maps, and Adam applies lazy per-row updates with deferred
    /// decay. Numerically equivalent to [`TrainMode::Dense`] up to
    /// floating-point reassociation, and bitwise independent of the
    /// budget.
    #[default]
    Sparse,
}

/// Hyper-parameters for a KG embedding model and its trainer.
///
/// Defaults are the scaled-down analogues of the paper's settings (Sect. 7.1:
/// dim 100/200, margin-based losses, 𝜆 margins): we use a smaller dimension
/// so the full experiment grid runs on a laptop-scale machine; the relative
/// comparisons the paper makes are preserved.
#[derive(Debug, Clone, Copy)]
pub struct EmbedConfig {
    /// Which entity–relation scoring model to use.
    pub model: ModelKind,
    /// Entity embedding dimension `d_e` (must be even for RotatE).
    pub dim: usize,
    /// Class embedding dimension `d_c` (paper picks 50 after search).
    pub class_dim: usize,
    /// Margin `λ_er` of the entity–relation loss, Eq. (1).
    pub margin_er: f32,
    /// Margin `λ_ec` of the entity–class loss, Eq. (3).
    pub margin_ec: f32,
    /// Number of negative samples per positive triple.
    pub neg_samples: usize,
    /// Mini-batch size (number of positive triples).
    pub batch_size: usize,
    /// Training epochs for the embedding objective.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// RNG seed controlling init and sampling.
    pub seed: u64,
    /// Mini-batch execution mode (sparse/parallel fast path vs the dense
    /// oracle). Sampling is identical in both modes, so the loss
    /// trajectories agree up to floating-point reassociation.
    pub mode: TrainMode,
    /// Shard count for sharded gradient computation; `0` defers to
    /// [`daakg_parallel::num_threads`]. Ignored in [`TrainMode::Dense`].
    ///
    /// The shard count fixes the bits of training. How many threads run
    /// the shards follows the calling thread's `daakg-parallel` worker
    /// budget, so the same count trains bitwise the same parameters
    /// whether its shards run in parallel or in line.
    pub threads: usize,
}

impl Default for EmbedConfig {
    fn default() -> Self {
        Self {
            model: ModelKind::TransE,
            dim: 32,
            class_dim: 16,
            margin_er: 1.0,
            margin_ec: 0.5,
            neg_samples: 4,
            batch_size: 256,
            epochs: 30,
            lr: 5e-2,
            seed: 42,
            mode: TrainMode::default(),
            threads: 0,
        }
    }
}

impl EmbedConfig {
    /// Config with the given model kind and otherwise default settings.
    pub fn for_model(model: ModelKind) -> Self {
        Self {
            model,
            ..Self::default()
        }
    }

    /// Builder-style override of the dimension.
    pub fn with_dim(mut self, dim: usize) -> Self {
        self.dim = dim;
        self
    }

    /// Builder-style override of the epoch count.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Builder-style override of the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style override of the execution mode.
    pub fn with_mode(mut self, mode: TrainMode) -> Self {
        self.mode = mode;
        self
    }

    /// Builder-style override of the worker-thread count (0 = auto).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The effective shard count for parallel gradient computation.
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            daakg_parallel::num_threads()
        } else {
            self.threads
        }
    }

    /// Validate internal consistency (e.g. even dim for RotatE).
    pub fn validate(&self) -> Result<(), DaakgError> {
        let invalid = |reason| DaakgError::invalid("EmbedConfig", reason);
        if self.dim == 0 {
            return Err(invalid("dim must be positive".into()));
        }
        if self.model == ModelKind::RotatE && !self.dim.is_multiple_of(2) {
            return Err(invalid(format!(
                "RotatE requires an even dim, got {}",
                self.dim
            )));
        }
        if self.neg_samples == 0 {
            return Err(invalid("neg_samples must be positive".into()));
        }
        if self.lr.is_nan() || self.lr <= 0.0 {
            return Err(invalid("lr must be positive".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(EmbedConfig::default().validate().is_ok());
    }

    #[test]
    fn rotate_requires_even_dim() {
        let cfg = EmbedConfig::for_model(ModelKind::RotatE).with_dim(33);
        assert!(cfg.validate().is_err());
        let cfg = EmbedConfig::for_model(ModelKind::RotatE).with_dim(32);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn builders_chain() {
        let cfg = EmbedConfig::default()
            .with_dim(8)
            .with_epochs(3)
            .with_seed(7)
            .with_mode(TrainMode::Dense)
            .with_threads(2);
        assert_eq!(cfg.dim, 8);
        assert_eq!(cfg.epochs, 3);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.mode, TrainMode::Dense);
        assert_eq!(cfg.effective_threads(), 2);
    }

    #[test]
    fn sparse_is_the_default_mode_and_threads_auto_resolve() {
        let cfg = EmbedConfig::default();
        assert_eq!(cfg.mode, TrainMode::Sparse);
        assert_eq!(cfg.threads, 0);
        assert!(cfg.effective_threads() >= 1);
    }

    #[test]
    fn degenerate_configs_rejected() {
        let cfg = EmbedConfig {
            dim: 0,
            ..EmbedConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = EmbedConfig {
            neg_samples: 0,
            ..EmbedConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = EmbedConfig {
            lr: 0.0,
            ..EmbedConfig::default()
        };
        assert!(cfg.validate().is_err());
    }
}
