//! # daakg-graph
//!
//! Knowledge-graph data model for the DAAKG reproduction.
//!
//! A knowledge graph is the quadruple `G = (E, R, C, T)` of Sect. 2.1 of the
//! paper: entities, relations, classes, and triples. Entities, relations and
//! classes are collectively called *elements*. A triple is
//! `(head, relation, tail)` where `head` and `tail` are entities; class
//! membership is stored separately as `(entity, type, class)` assertions,
//! mirroring the paper's treatment of the special `type` relation.
//!
//! This crate provides:
//!
//! * compact integer [`ids`] for entities / relations / classes,
//! * the indexed [`KnowledgeGraph`] container with O(1) neighbourhood access,
//! * [`pair`] types for element pairs and oracle labels,
//! * [`alignment`] gold-standard and predicted alignments,
//! * a fast, dependency-free [`fxhash`] hasher for the hot
//!   integer-keyed maps used throughout the workspace,
//! * plain-text [`io`] serialization for datasets,
//! * the workspace-wide typed error, [`DaakgError`] — every fallible
//!   public entry point across the DAAKG crates returns it.

#![forbid(unsafe_code)]

pub mod alignment;
pub mod error;
pub mod fxhash;
pub mod ids;
pub mod io;
pub mod kg;
pub mod pair;
pub mod stats;

pub use alignment::{AlignmentResult, GoldAlignment};
pub use error::DaakgError;
pub use ids::{ClassId, ElementId, EntityId, RelationId};
pub use kg::{KgBuilder, KnowledgeGraph, Triple, TypeAssertion};
pub use pair::{ElementPair, Label, PairKind};
pub use stats::KgStats;

pub use fxhash::{FxHashMap, FxHashSet};
