//! # daakg-embed
//!
//! Knowledge-graph embedding models for the DAAKG reproduction (Sect. 4.1 of
//! the paper).
//!
//! Three entity–relation embedding models are provided, matching the paper's
//! experimental setup:
//!
//! * [`TransE`] — translation: `f_er = ‖h + r − t‖`,
//! * [`RotatE`] — complex rotation: `f_er = ‖h ∘ r − t‖`,
//! * [`CompGcn`] — a composition-based graph convolution
//!   encoder scored with a translational decoder.
//!
//! All models implement the [`KgEmbedding`] trait, which
//! exposes (a) tape-based scoring for training, (b) tape-free snapshots for
//! inference, and (c) the *relation difference vectors* `r̃` and error bounds
//! `d` of Eq. (13)–(14) that drive the inference-power measurement.
//!
//! The [`entity_class`] module implements the dedicated entity–class scoring
//! function of Eq. (2) (class-specific linear subspaces reached through a
//! shared FFNN), and [`trainer`] implements the margin losses of Eq. (1) and
//! Eq. (3) with negative [`sampling`].

#![forbid(unsafe_code)]

pub mod compgcn;
pub mod config;
pub mod entity_class;
mod kernel;
pub mod model;
pub mod rotate;
pub mod sampling;
pub mod trainer;
pub mod transe;
pub mod warm;

pub use compgcn::CompGcn;
pub use config::{EmbedConfig, TrainMode};
pub use entity_class::EntityClassModel;
pub use model::{KgEmbedding, ModelKind, RelationBound, TableParams};
pub use rotate::RotatE;
pub use trainer::{EmbedTrainer, TrainStats};
pub use transe::TransE;
pub use warm::{warm_start_row, warm_start_row_observed, WarmStartConfig};

/// Construct a boxed model of the given kind for a KG shape.
///
/// `num_relations` is the count of *asserted* relations; each model
/// internally doubles it with synthetic reverse relations `r⁻¹` as described
/// under Eq. (1).
pub fn build_model(
    kind: ModelKind,
    kg: &daakg_graph::KnowledgeGraph,
    dim: usize,
) -> Box<dyn KgEmbedding> {
    match kind {
        ModelKind::TransE => Box::new(TransE::new(kg, dim)),
        ModelKind::RotatE => Box::new(RotatE::new(kg, dim)),
        ModelKind::CompGcn => Box::new(CompGcn::new(kg, dim)),
    }
}
