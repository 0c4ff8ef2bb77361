//! # daakg-infer
//!
//! Alignment inference for the DAAKG reproduction: derive new entity
//! matches from labeled ones by propagating through shared relation
//! structure, and score unlabeled candidate pairs by the *inference power*
//! their label would unlock.
//!
//! The engine implements the functionality-weighted one-hop closure of the
//! paper's reasoning rules, iterated to a fixpoint under a configurable
//! depth cap:
//!
//! * [`Functionality`] — per-relation `funct` / `funct⁻¹` statistics,
//! * [`RelationMatches`] — the relation alignment the rules fire through,
//! * [`InferenceEngine`] — the propagation engine
//!   ([`propagate`](InferenceEngine::propagate)) and the question scorer
//!   ([`inference_power`](InferenceEngine::inference_power)),
//! * [`KnownMatches`] — 1:1 bookkeeping of already-resolved pairs,
//! * [`EntitySim`] — the similarity oracle the closure consults; alignment
//!   snapshots and the batched similarity engine of `daakg-align` both
//!   implement it, so inference reuses the pre-normalized matrices paid
//!   for at snapshot construction.
//!
//! The optimized closure keeps an improvement frontier; the retained
//! [`closure_reference`](InferenceEngine::closure_reference) is the dense
//! naive oracle the bench harness verifies it against.

#![forbid(unsafe_code)]

pub mod functionality;
pub mod propagate;

pub use functionality::Functionality;
pub use propagate::{InferenceEngine, InferredMatch};

use daakg_align::{AlignmentSnapshot, BatchedSimilarity, LabeledMatches};
use daakg_graph::{DaakgError, FxHashMap, FxHashSet};

/// Configuration of the inference closure.
#[derive(Debug, Clone, Copy)]
pub struct InferConfig {
    /// Maximum number of inference steps from a seed (depth cap of the
    /// fixpoint iteration).
    pub max_depth: u32,
    /// Derived pairs below this confidence are pruned (and not expanded).
    pub min_confidence: f32,
    /// Child pairs whose model similarity is below this gate are never
    /// derived. `-1.0` disables gating (cosines live in `[-1, 1]`).
    pub sim_gate: f32,
    /// Relation groups wider than this on either side are skipped — hub
    /// entities would otherwise produce quadratically many low-value
    /// candidates.
    pub max_fanout: usize,
}

impl Default for InferConfig {
    fn default() -> Self {
        Self {
            max_depth: 3,
            min_confidence: 0.05,
            sim_gate: 0.0,
            max_fanout: 32,
        }
    }
}

impl InferConfig {
    /// Validate internal consistency.
    pub fn validate(&self) -> Result<(), DaakgError> {
        let invalid = |reason: &str| DaakgError::invalid("InferConfig", reason);
        if self.max_depth == 0 {
            return Err(invalid("max_depth must be at least 1"));
        }
        if !self.min_confidence.is_finite() || self.min_confidence < 0.0 {
            return Err(invalid("min_confidence must be finite and non-negative"));
        }
        if !self.sim_gate.is_finite() {
            return Err(invalid("sim_gate must be finite"));
        }
        if self.max_fanout == 0 {
            return Err(invalid("max_fanout must be at least 1"));
        }
        Ok(())
    }
}

/// Entity-similarity oracle consulted by the inference closure.
pub trait EntitySim {
    /// Similarity of `(left, right)` in `[-1, 1]`.
    fn entity_sim(&self, left: u32, right: u32) -> f32;
}

impl EntitySim for AlignmentSnapshot {
    fn entity_sim(&self, left: u32, right: u32) -> f32 {
        self.sim_entity(left, right)
    }
}

impl EntitySim for BatchedSimilarity {
    fn entity_sim(&self, left: u32, right: u32) -> f32 {
        self.score(left, right)
    }
}

/// A constant similarity — handy for tests and structure-only propagation.
#[derive(Debug, Clone, Copy)]
pub struct UniformSim(pub f32);

impl EntitySim for UniformSim {
    fn entity_sim(&self, _left: u32, _right: u32) -> f32 {
        self.0
    }
}

/// The relation alignment used by the inference rules: a left-to-right map
/// over raw relation indices.
#[derive(Debug, Clone, Default)]
pub struct RelationMatches {
    l2r: FxHashMap<u32, u32>,
}

impl RelationMatches {
    /// No matched relations (inference derives nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from `(left, right)` raw relation index pairs. Later pairs
    /// overwrite earlier ones on the same left relation.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (u32, u32)>) -> Self {
        Self {
            l2r: pairs.into_iter().collect(),
        }
    }

    /// The relation matches recorded in a set of labeled matches.
    pub fn from_labels(labels: &LabeledMatches) -> Self {
        Self::from_pairs(labels.relations.iter().copied())
    }

    /// Mine relation matches from a snapshot: each left relation maps to
    /// its top-1 right relation when the similarity clears `threshold`.
    pub fn from_snapshot(snap: &AlignmentSnapshot, num_left: usize, threshold: f32) -> Self {
        let mut out = Self::new();
        for r1 in 0..num_left as u32 {
            if let Some(&(r2, s)) = snap.rank_relations(r1).first() {
                if s >= threshold {
                    out.insert(r1, r2);
                }
            }
        }
        out
    }

    /// Record a relation match.
    pub fn insert(&mut self, left: u32, right: u32) {
        self.l2r.insert(left, right);
    }

    /// Right counterpart of a left relation, if matched.
    #[inline]
    pub fn forward(&self, left: u32) -> Option<u32> {
        self.l2r.get(&left).copied()
    }

    /// Number of matched relations.
    pub fn len(&self) -> usize {
        self.l2r.len()
    }

    /// True when no relations are matched.
    pub fn is_empty(&self) -> bool {
        self.l2r.is_empty()
    }
}

/// Already-resolved entity matches under the 1:1 restriction: a pair set
/// plus per-side claims, so both "is this pair known" and "is either
/// endpoint taken" are O(1).
#[derive(Debug, Clone, Default)]
pub struct KnownMatches {
    pairs: FxHashSet<(u32, u32)>,
    left: FxHashMap<u32, u32>,
    right: FxHashMap<u32, u32>,
}

impl KnownMatches {
    /// Nothing known.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from `(left, right)` pairs; conflicting later pairs are
    /// dropped (first claim wins).
    pub fn from_pairs(pairs: impl IntoIterator<Item = (u32, u32)>) -> Self {
        let mut out = Self::new();
        for (l, r) in pairs {
            out.insert(l, r);
        }
        out
    }

    /// Record a match. Returns `false` (and records nothing) when either
    /// endpoint is already claimed by a different match.
    pub fn insert(&mut self, left: u32, right: u32) -> bool {
        if self.pairs.contains(&(left, right)) {
            return true;
        }
        if self.left.contains_key(&left) || self.right.contains_key(&right) {
            return false;
        }
        self.pairs.insert((left, right));
        self.left.insert(left, right);
        self.right.insert(right, left);
        true
    }

    /// True when the exact pair is known.
    #[inline]
    pub fn contains(&self, pair: (u32, u32)) -> bool {
        self.pairs.contains(&pair)
    }

    /// True when deriving `pair` is pointless: it is already known, or one
    /// of its endpoints is claimed by a different known match (1:1).
    #[inline]
    pub fn blocks(&self, pair: (u32, u32)) -> bool {
        self.pairs.contains(&pair)
            || self.left.contains_key(&pair.0)
            || self.right.contains_key(&pair.1)
    }

    /// The known counterpart of a left entity.
    #[inline]
    pub fn left_match(&self, left: u32) -> Option<u32> {
        self.left.get(&left).copied()
    }

    /// The known counterpart of a right entity.
    #[inline]
    pub fn right_match(&self, right: u32) -> Option<u32> {
        self.right.get(&right).copied()
    }

    /// Number of known matches.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when nothing is known.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        assert!(InferConfig::default().validate().is_ok());
        assert!(InferConfig {
            max_depth: 0,
            ..InferConfig::default()
        }
        .validate()
        .is_err());
        assert!(InferConfig {
            min_confidence: -0.1,
            ..InferConfig::default()
        }
        .validate()
        .is_err());
        assert!(InferConfig {
            sim_gate: f32::NAN,
            ..InferConfig::default()
        }
        .validate()
        .is_err());
        assert!(InferConfig {
            max_fanout: 0,
            ..InferConfig::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn relation_matches_forward_lookup() {
        let rels = RelationMatches::from_pairs([(0, 5), (2, 1)]);
        assert_eq!(rels.forward(0), Some(5));
        assert_eq!(rels.forward(2), Some(1));
        assert_eq!(rels.forward(1), None);
        assert_eq!(rels.len(), 2);
        assert!(!rels.is_empty());
    }

    #[test]
    fn known_matches_enforce_one_to_one() {
        let mut k = KnownMatches::new();
        assert!(k.insert(0, 0));
        assert!(k.insert(0, 0), "re-inserting the same pair is fine");
        assert!(!k.insert(0, 1), "left endpoint already claimed");
        assert!(!k.insert(2, 0), "right endpoint already claimed");
        assert!(k.insert(1, 1));
        assert_eq!(k.len(), 2);
        assert!(k.contains((0, 0)));
        assert!(k.blocks((0, 3)), "claimed left blocks new pairs");
        assert!(k.blocks((3, 1)), "claimed right blocks new pairs");
        assert!(!k.blocks((3, 3)));
        assert_eq!(k.left_match(0), Some(0));
        assert_eq!(k.right_match(1), Some(1));
        assert_eq!(k.left_match(9), None);
    }

    #[test]
    fn uniform_sim_is_constant() {
        let s = UniformSim(0.25);
        assert_eq!(s.entity_sim(0, 0), 0.25);
        assert_eq!(s.entity_sim(7, 3), 0.25);
    }
}
