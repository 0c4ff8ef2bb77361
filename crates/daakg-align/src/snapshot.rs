//! A tape-free snapshot of the joint alignment model: every similarity
//! function `S(·, ·)` of Sect. 4.2, evaluated over cached matrices.
//!
//! Downstream modules (inference power, active learning, evaluation) only
//! ever talk to the model through a snapshot, which makes them independent
//! of training internals and cheap to query.

use crate::batched::BatchedSimilarity;
use crate::mapping::{map_matrix, map_names};
use crate::mean_embed::{mean_class_embeddings, mean_relation_embeddings, Side};
use crate::weights::EntityWeights;
use daakg_autograd::tensor::cosine;
use daakg_autograd::{ParamStore, Tensor};
use daakg_embed::{EntityClassModel, KgEmbedding};
use daakg_graph::{ElementPair, KnowledgeGraph};
use daakg_index::{IvfConfig, IvfIndex};
use std::sync::{Arc, OnceLock};

/// Cached matrices of one alignment round.
#[derive(Debug, Clone)]
pub struct AlignmentSnapshot {
    /// Encoded entities of `G` (`n₁ × d`). Shared (`Arc`) with the
    /// snapshots compaction folds from this one: a fold only appends
    /// right-KG rows, so the left side never needs another copy.
    pub ents1: Arc<Tensor>,
    /// Encoded entities of `G'` (`n₂ × d`).
    pub ents2: Tensor,
    /// `ents1 · A_ent`: left entities transported into the right space
    /// (shared across folds like `ents1`).
    pub mapped_ents1: Arc<Tensor>,
    /// Relation representations of `G` (base relations).
    pub rels1: Tensor,
    /// Relation representations of `G'`.
    pub rels2: Tensor,
    /// `rels1 · A_rel`.
    pub mapped_rels1: Tensor,
    /// Class embeddings of `G` (`[w_c | b_c]` per class; zero rows when the
    /// class-embedding ablation is off).
    pub cls1: Tensor,
    /// Class embeddings of `G'`.
    pub cls2: Tensor,
    /// `cls1 · A_cls`.
    pub mapped_cls1: Tensor,
    /// Mean relation embeddings `r̄` of `G` (entity space).
    pub mean_rels1: Tensor,
    /// Mean relation embeddings of `G'`.
    pub mean_rels2: Tensor,
    /// `mean_rels1 · A_ent` (the paper maps mean embeddings with `A_ent`).
    pub mapped_mean_rels1: Tensor,
    /// Mean class embeddings `c̄` of `G`.
    pub mean_cls1: Tensor,
    /// Mean class embeddings of `G'`.
    pub mean_cls2: Tensor,
    /// `mean_cls1 · A_ent`.
    pub mapped_mean_cls1: Tensor,
    /// Entity weights of the round (Eq. 6).
    pub weights: EntityWeights,
    /// Whether mean embeddings participate in `S` (Table 5 ablation).
    pub use_mean_embeddings: bool,
    /// Whether dedicated class embeddings participate in `S`.
    pub use_class_embeddings: bool,
    /// Batched entity-similarity engine over `(mapped_ents1, ents2)`,
    /// pre-normalized once at snapshot construction.
    entity_engine: BatchedSimilarity,
    /// IVF configuration for approximate entity search, when serving
    /// enabled it (see [`AlignmentSnapshot::set_index_config`]).
    index_cfg: Option<IvfConfig>,
    /// The lazily-built IVF index. A `OnceLock` so the build happens at
    /// most once per snapshot no matter how many readers race the first
    /// approximate query, and clones of the snapshot (all sharing the
    /// same published version) share the built index through the `Arc`.
    index_cell: OnceLock<Arc<IvfIndex>>,
}

/// The owned pieces [`AlignmentSnapshot::from_parts`] reassembles a
/// snapshot from — exactly the public cached matrices plus weights and
/// ablation flags (the entity engine is derived, the index travels
/// separately through [`AlignmentSnapshot::prime_index`]).
pub(crate) struct SnapshotParts {
    pub ents1: Arc<Tensor>,
    pub ents2: Tensor,
    pub mapped_ents1: Arc<Tensor>,
    pub rels1: Tensor,
    pub rels2: Tensor,
    pub mapped_rels1: Tensor,
    pub cls1: Tensor,
    pub cls2: Tensor,
    pub mapped_cls1: Tensor,
    pub mean_rels1: Tensor,
    pub mean_rels2: Tensor,
    pub mapped_mean_rels1: Tensor,
    pub mean_cls1: Tensor,
    pub mean_cls2: Tensor,
    pub mapped_mean_cls1: Tensor,
    pub weights: EntityWeights,
    pub use_mean_embeddings: bool,
    pub use_class_embeddings: bool,
}

impl AlignmentSnapshot {
    /// Build a snapshot from the current parameters.
    ///
    /// `ec1` / `ec2` are the entity-class models (ignored when
    /// `use_class_embeddings` is false).
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        kg1: &KnowledgeGraph,
        kg2: &KnowledgeGraph,
        model1: &dyn KgEmbedding,
        model2: &dyn KgEmbedding,
        ec1: &EntityClassModel,
        ec2: &EntityClassModel,
        store: &ParamStore,
        weights: EntityWeights,
        use_mean_embeddings: bool,
        use_class_embeddings: bool,
    ) -> Self {
        let ents1 = model1.entity_matrix(store, "g1.");
        let ents2 = model2.entity_matrix(store, "g2.");
        let a_ent = store.get(map_names::A_ENT);
        let mapped_ents1 = map_matrix(&ents1, a_ent);

        let rels1 = model1.relation_matrix(store, "g1.");
        let rels2 = model2.relation_matrix(store, "g2.");
        let a_rel = store.get(map_names::A_REL);
        let mapped_rels1 = map_matrix(&rels1, a_rel);

        let (cls1, cls2, mapped_cls1) = if use_class_embeddings {
            let c1 = ec1.class_matrix(store, "g1.");
            let c2 = ec2.class_matrix(store, "g2.");
            let a_cls = store.get(map_names::A_CLS);
            let m1 = map_matrix(&c1, a_cls);
            (c1, c2, m1)
        } else {
            let d = 2 * ec1.class_dim().max(1);
            (
                Tensor::zeros(kg1.num_classes(), d),
                Tensor::zeros(kg2.num_classes(), d),
                Tensor::zeros(kg1.num_classes(), d),
            )
        };

        let mean_rels1 = mean_relation_embeddings(kg1, &ents1, &weights, Side::Left);
        let mean_rels2 = mean_relation_embeddings(kg2, &ents2, &weights, Side::Right);
        let mapped_mean_rels1 = map_matrix(&mean_rels1, a_ent);
        let mean_cls1 = mean_class_embeddings(kg1, &ents1, &weights, Side::Left);
        let mean_cls2 = mean_class_embeddings(kg2, &ents2, &weights, Side::Right);
        let mapped_mean_cls1 = map_matrix(&mean_cls1, a_ent);

        let entity_engine = BatchedSimilarity::new(&mapped_ents1, &ents2);

        Self {
            ents1: Arc::new(ents1),
            ents2,
            mapped_ents1: Arc::new(mapped_ents1),
            rels1,
            rels2,
            mapped_rels1,
            cls1,
            cls2,
            mapped_cls1,
            mean_rels1,
            mean_rels2,
            mapped_mean_rels1,
            mean_cls1,
            mean_cls2,
            mapped_mean_cls1,
            weights,
            use_mean_embeddings,
            use_class_embeddings,
            entity_engine,
            index_cfg: None,
            index_cell: OnceLock::new(),
        }
    }

    /// Reassemble a snapshot from persisted slabs (the [`crate::persist`]
    /// codec's constructor). The entity engine is rebuilt by normalizing
    /// `(mapped_ents1, ents2)` exactly as [`AlignmentSnapshot::build`]
    /// does — normalization is a pure function of the slabs, so
    /// bitwise-equal inputs yield a bitwise-equal engine and therefore
    /// bitwise-identical rankings. Shape inconsistencies return a reason
    /// string (the codec wraps it into a typed corruption error) instead
    /// of panicking.
    ///
    /// `engine` builds the entity engine over the validated parts: the
    /// decode path normalizes both sides ([`BatchedSimilarity::new`]); a
    /// compaction fold shares its base snapshot's normalized queries
    /// ([`BatchedSimilarity::with_candidates`]) — bitwise the same engine.
    pub(crate) fn from_parts(
        p: SnapshotParts,
        engine: impl FnOnce(&SnapshotParts) -> BatchedSimilarity,
    ) -> Result<Self, String> {
        if p.mapped_ents1.rows() != p.ents1.rows() {
            return Err(format!(
                "mapped_ents1 holds {} rows but ents1 holds {}",
                p.mapped_ents1.rows(),
                p.ents1.rows()
            ));
        }
        if p.mapped_ents1.cols() != p.ents2.cols() {
            return Err(format!(
                "mapped_ents1 width {} disagrees with ents2 width {}",
                p.mapped_ents1.cols(),
                p.ents2.cols()
            ));
        }
        if p.weights.left.len() != p.ents1.rows() || p.weights.right.len() != p.ents2.rows() {
            return Err(format!(
                "weights hold {}/{} entries for {}/{} entities",
                p.weights.left.len(),
                p.weights.right.len(),
                p.ents1.rows(),
                p.ents2.rows()
            ));
        }
        let entity_engine = engine(&p);
        Ok(Self {
            ents1: p.ents1,
            ents2: p.ents2,
            mapped_ents1: p.mapped_ents1,
            rels1: p.rels1,
            rels2: p.rels2,
            mapped_rels1: p.mapped_rels1,
            cls1: p.cls1,
            cls2: p.cls2,
            mapped_cls1: p.mapped_cls1,
            mean_rels1: p.mean_rels1,
            mean_rels2: p.mean_rels2,
            mapped_mean_rels1: p.mapped_mean_rels1,
            mean_cls1: p.mean_cls1,
            mean_cls2: p.mean_cls2,
            mapped_mean_cls1: p.mapped_mean_cls1,
            weights: p.weights,
            use_mean_embeddings: p.use_mean_embeddings,
            use_class_embeddings: p.use_class_embeddings,
            entity_engine,
            index_cfg: None,
            index_cell: OnceLock::new(),
        })
    }

    /// Seed the lazy index cell with an already-built (persisted) index,
    /// so the first approximate query serves the exact index that was
    /// saved instead of re-clustering. A no-op if an index was already
    /// built or primed for this snapshot.
    pub(crate) fn prime_index(&self, index: Arc<IvfIndex>) {
        let _ = self.index_cell.set(index);
    }

    /// Whether `other` is bit-for-bit the same served state: every cached
    /// matrix, the entity weights, the ablation flags and the index
    /// configuration compared on exact bit patterns (`f32::to_bits`, so
    /// `NaN`s and signed zeros count too). This is the equality the
    /// durability tests assert across save/load cycles — it implies
    /// bitwise-identical answers from every query path.
    pub fn bitwise_eq(&self, other: &Self) -> bool {
        fn teq(a: &Tensor, b: &Tensor) -> bool {
            a.shape() == b.shape()
                && a.as_slice()
                    .iter()
                    .zip(b.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        }
        fn veq(a: &[f32], b: &[f32]) -> bool {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        }
        teq(&self.ents1, &other.ents1)
            && teq(&self.ents2, &other.ents2)
            && teq(&self.mapped_ents1, &other.mapped_ents1)
            && teq(&self.rels1, &other.rels1)
            && teq(&self.rels2, &other.rels2)
            && teq(&self.mapped_rels1, &other.mapped_rels1)
            && teq(&self.cls1, &other.cls1)
            && teq(&self.cls2, &other.cls2)
            && teq(&self.mapped_cls1, &other.mapped_cls1)
            && teq(&self.mean_rels1, &other.mean_rels1)
            && teq(&self.mean_rels2, &other.mean_rels2)
            && teq(&self.mapped_mean_rels1, &other.mapped_mean_rels1)
            && teq(&self.mean_cls1, &other.mean_cls1)
            && teq(&self.mean_cls2, &other.mean_cls2)
            && teq(&self.mapped_mean_cls1, &other.mapped_mean_cls1)
            && veq(&self.weights.left, &other.weights.left)
            && veq(&self.weights.right, &other.weights.right)
            && self.use_mean_embeddings == other.use_mean_embeddings
            && self.use_class_embeddings == other.use_class_embeddings
            && self.index_cfg == other.index_cfg
    }

    /// Configure (or clear) approximate entity search for this snapshot.
    /// The index itself is built lazily — on the first
    /// [`AlignmentSnapshot::ivf_index`] call — and exactly once; setting a
    /// new configuration discards any previously built index.
    ///
    /// `AlignmentService` calls this on every snapshot it publishes, so an
    /// index travels atomically with its version: every reader of version
    /// `v` shares the same index, and no live version is ever re-indexed.
    pub fn set_index_config(&mut self, cfg: Option<IvfConfig>) {
        self.index_cfg = cfg;
        self.index_cell = OnceLock::new();
    }

    /// The IVF configuration this snapshot carries, if any.
    pub fn index_config(&self) -> Option<&IvfConfig> {
        self.index_cfg.as_ref()
    }

    /// The snapshot's IVF index over the normalized right-entity matrix,
    /// or `None` when no index is configured. The first call (per
    /// snapshot) builds the index; concurrent callers block on that one
    /// build and then share the result — an `Arc` so callers can pin it
    /// beyond the snapshot borrow.
    pub fn ivf_index(&self) -> Option<&Arc<IvfIndex>> {
        let cfg = self.index_cfg.as_ref()?;
        Some(self.index_cell.get_or_init(|| {
            Arc::new(IvfIndex::build(
                self.entity_engine.normalized_candidates(),
                cfg,
            ))
        }))
    }

    /// Approximate top-`k` right entities for a left entity: scan the
    /// `nprobe` most-similar inverted lists of the snapshot's index.
    /// Scores are exact cosines over the probed candidates, and
    /// `nprobe == nlist` reproduces [`AlignmentSnapshot::top_k_entities`]
    /// exactly. `None` when no index is configured.
    pub fn top_k_entities_approx(
        &self,
        e1: u32,
        k: usize,
        nprobe: usize,
    ) -> Option<Vec<(u32, f32)>> {
        self.top_k_entities_approx_observed(e1, k, nprobe, &daakg_index::SearchSpans::default())
    }

    /// [`AlignmentSnapshot::top_k_entities_approx`] with stage telemetry:
    /// the centroid probe and the inverted-list scan are timed into
    /// `spans` separately. The answer is bitwise identical; no-op handles
    /// cost nothing.
    pub fn top_k_entities_approx_observed(
        &self,
        e1: u32,
        k: usize,
        nprobe: usize,
        spans: &daakg_index::SearchSpans,
    ) -> Option<Vec<(u32, f32)>> {
        let index = self.ivf_index()?;
        Some(index.search_observed(self.entity_engine.normalized_query(e1), k, nprobe, spans))
    }

    /// Approximate ranking of *all* candidates in the probed lists for a
    /// left entity — the `Approx`-mode analogue of
    /// [`AlignmentSnapshot::rank_entities`] (the tail the probe never
    /// scanned is absent rather than approximated). `None` when no index
    /// is configured.
    pub fn rank_entities_approx(&self, e1: u32, nprobe: usize) -> Option<Vec<(u32, f32)>> {
        self.top_k_entities_approx(e1, self.ents2.rows(), nprobe)
    }

    /// [`AlignmentSnapshot::rank_entities_approx`] with stage telemetry
    /// (see [`AlignmentSnapshot::top_k_entities_approx_observed`]).
    pub fn rank_entities_approx_observed(
        &self,
        e1: u32,
        nprobe: usize,
        spans: &daakg_index::SearchSpans,
    ) -> Option<Vec<(u32, f32)>> {
        self.top_k_entities_approx_observed(e1, self.ents2.rows(), nprobe, spans)
    }

    /// Entity similarity `S(e, e') = cos(A_ent·e, e')` (Eq. 4).
    #[inline]
    pub fn sim_entity(&self, e1: u32, e2: u32) -> f32 {
        cosine(
            self.mapped_ents1.row(e1 as usize),
            self.ents2.row(e2 as usize),
        )
    }

    /// Relation similarity
    /// `S(r, r') = max(cos(A_rel·r, r'), cos(A_ent·r̄, r̄'))`.
    pub fn sim_relation(&self, r1: u32, r2: u32) -> f32 {
        let direct = cosine(
            self.mapped_rels1.row(r1 as usize),
            self.rels2.row(r2 as usize),
        );
        if !self.use_mean_embeddings {
            return direct;
        }
        let via_mean = cosine(
            self.mapped_mean_rels1.row(r1 as usize),
            self.mean_rels2.row(r2 as usize),
        );
        direct.max(via_mean)
    }

    /// Class similarity
    /// `S(c, c') = max(cos(A_cls·c, c'), cos(A_ent·c̄, c̄'))`.
    pub fn sim_class(&self, c1: u32, c2: u32) -> f32 {
        let direct = if self.use_class_embeddings {
            cosine(
                self.mapped_cls1.row(c1 as usize),
                self.cls2.row(c2 as usize),
            )
        } else {
            f32::NEG_INFINITY
        };
        let via_mean = if self.use_mean_embeddings || !self.use_class_embeddings {
            cosine(
                self.mapped_mean_cls1.row(c1 as usize),
                self.mean_cls2.row(c2 as usize),
            )
        } else {
            f32::NEG_INFINITY
        };
        let s = direct.max(via_mean);
        if s == f32::NEG_INFINITY {
            0.0
        } else {
            s
        }
    }

    /// Similarity of an arbitrary element pair.
    pub fn sim(&self, pair: ElementPair) -> f32 {
        match pair {
            ElementPair::Entity(l, r) => self.sim_entity(l.raw(), r.raw()),
            ElementPair::Relation(l, r) => self.sim_relation(l.raw(), r.raw()),
            ElementPair::Class(l, r) => self.sim_class(l.raw(), r.raw()),
        }
    }

    /// The batched entity-similarity engine (pre-normalized matrices).
    ///
    /// Exposed so callers that rank many queries — evaluation sweeps,
    /// semi-supervised mining — can use the block-scoring entry points
    /// directly instead of going through per-query methods.
    pub fn entity_engine(&self) -> &BatchedSimilarity {
        &self.entity_engine
    }

    /// Rank all right entities for a left entity, descending.
    ///
    /// Served by the batched engine: normalization was paid once at
    /// snapshot construction and the score loop is branch-free. For top-k
    /// consumers prefer [`AlignmentSnapshot::top_k_entities`], which skips
    /// the full sort.
    pub fn rank_entities(&self, e1: u32) -> Vec<(u32, f32)> {
        self.entity_engine.rank_all(e1)
    }

    /// Best `k` right entities for a left entity, descending — bounded-heap
    /// selection, `O(n log k)` after the batched score pass.
    pub fn top_k_entities(&self, e1: u32, k: usize) -> Vec<(u32, f32)> {
        self.entity_engine.top_k(e1, k)
    }

    /// Best `k` right entities for *each* query, scoring whole query blocks
    /// with one matmul per block.
    pub fn top_k_entities_block(&self, queries: &[u32], k: usize) -> Vec<Vec<(u32, f32)>> {
        self.entity_engine.top_k_block(queries, k)
    }

    /// Reference implementation of [`AlignmentSnapshot::rank_entities`]:
    /// per-candidate cosine (recomputing norms) plus a full stable sort.
    /// Retained as the correctness oracle for the batched path; the bench
    /// harness also times it as the baseline.
    pub fn rank_entities_naive(&self, e1: u32) -> Vec<(u32, f32)> {
        let mut v: Vec<(u32, f32)> = (0..self.ents2.rows() as u32)
            .map(|e2| (e2, self.sim_entity(e1, e2)))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v
    }

    /// Rank a restricted candidate set for a left entity, descending.
    pub fn rank_entity_candidates(&self, e1: u32, candidates: &[u32]) -> Vec<(u32, f32)> {
        self.entity_engine.rank_candidates(e1, candidates)
    }

    /// Rank all right relations for a left relation, descending.
    pub fn rank_relations(&self, r1: u32) -> Vec<(u32, f32)> {
        let mut v: Vec<(u32, f32)> = (0..self.rels2.rows() as u32)
            .map(|r2| (r2, self.sim_relation(r1, r2)))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v
    }

    /// Rank all right classes for a left class, descending.
    pub fn rank_classes(&self, c1: u32) -> Vec<(u32, f32)> {
        let mut v: Vec<(u32, f32)> = (0..self.cls2.rows().max(self.mean_cls2.rows()) as u32)
            .map(|c2| (c2, self.sim_class(c1, c2)))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v
    }

    /// Number of left / right entities.
    pub fn entity_counts(&self) -> (usize, usize) {
        (self.ents1.rows(), self.ents2.rows())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::init_mappings;
    use daakg_embed::TransE;
    use daakg_graph::kg::{example_dbpedia, example_wikidata};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build_snapshot() -> AlignmentSnapshot {
        let kg1 = example_dbpedia();
        let kg2 = example_wikidata();
        let m1 = TransE::new(&kg1, 8);
        let m2 = TransE::new(&kg2, 8);
        let ec1 = EntityClassModel::new(kg1.num_classes(), 8, 4);
        let ec2 = EntityClassModel::new(kg2.num_classes(), 8, 4);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        m1.init_params(&mut rng, &mut store, "g1.");
        m2.init_params(&mut rng, &mut store, "g2.");
        ec1.init_params(&mut rng, &mut store, "g1.");
        ec2.init_params(&mut rng, &mut store, "g2.");
        init_mappings(&mut rng, &mut store, 8, 8, 8);
        let weights = EntityWeights::uniform(kg1.num_entities(), kg2.num_entities());
        AlignmentSnapshot::build(
            &kg1, &kg2, &m1, &m2, &ec1, &ec2, &store, weights, true, true,
        )
    }

    #[test]
    fn shapes_are_consistent() {
        let kg1 = example_dbpedia();
        let s = build_snapshot();
        assert_eq!(s.ents1.rows(), kg1.num_entities());
        assert_eq!(s.mapped_ents1.shape(), s.ents1.shape());
        assert_eq!(s.mean_rels1.rows(), s.rels1.rows());
        assert_eq!(s.cls1.rows(), kg1.num_classes());
        assert_eq!(s.mean_cls1.rows(), kg1.num_classes());
    }

    #[test]
    fn similarities_are_bounded() {
        let s = build_snapshot();
        let (n1, n2) = s.entity_counts();
        for e1 in 0..n1 as u32 {
            for e2 in 0..n2 as u32 {
                let v = s.sim_entity(e1, e2);
                assert!((-1.0..=1.0).contains(&v), "cos out of range: {v}");
            }
        }
        let r = s.sim_relation(0, 0);
        assert!((-1.0..=1.0).contains(&r));
        let c = s.sim_class(0, 0);
        assert!((-1.0..=1.0).contains(&c));
    }

    #[test]
    fn rankings_are_descending_and_complete() {
        let s = build_snapshot();
        let ranked = s.rank_entities(0);
        assert_eq!(ranked.len(), s.entity_counts().1);
        for w in ranked.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        let sub = s.rank_entity_candidates(0, &[1, 3, 5]);
        assert_eq!(sub.len(), 3);
    }

    #[test]
    fn batched_ranking_matches_naive_oracle() {
        let s = build_snapshot();
        for e1 in 0..6u32 {
            let fast = s.rank_entities(e1);
            let slow = s.rank_entities_naive(e1);
            assert_eq!(fast.len(), slow.len());
            for (rank, (f, n)) in fast.iter().zip(&slow).enumerate() {
                // Same candidate at each rank, or an fp-tolerance tie swap.
                assert!(
                    f.0 == n.0 || (f.1 - n.1).abs() < 1e-5,
                    "query {e1} rank {rank}: batched {f:?} vs naive {n:?}"
                );
                assert!((f.1 - n.1).abs() < 1e-5);
            }
            let top = s.top_k_entities(e1, 4);
            assert_eq!(top.len(), 4);
            for (t, f) in top.iter().zip(&fast) {
                assert!(t.0 == f.0 || (t.1 - f.1).abs() < 1e-5);
            }
        }
        let block = s.top_k_entities_block(&[0, 1, 2, 3, 4, 5], 4);
        assert_eq!(block.len(), 6);
        for (q, ranking) in block.iter().enumerate() {
            let single = s.top_k_entities(q as u32, 4);
            assert_eq!(ranking, &single);
        }
    }

    #[test]
    fn sim_dispatches_by_pair_kind() {
        use daakg_graph::{ClassId, EntityId, RelationId};
        let s = build_snapshot();
        let pe = s.sim(ElementPair::Entity(EntityId::new(0), EntityId::new(0)));
        let pr = s.sim(ElementPair::Relation(
            RelationId::new(0),
            RelationId::new(0),
        ));
        let pc = s.sim(ElementPair::Class(ClassId::new(0), ClassId::new(0)));
        assert_eq!(pe, s.sim_entity(0, 0));
        assert_eq!(pr, s.sim_relation(0, 0));
        assert_eq!(pc, s.sim_class(0, 0));
    }

    #[test]
    fn ivf_index_is_lazy_shared_and_full_probe_exact() {
        let mut s = build_snapshot();
        // No config: approximate paths are absent, not panicking.
        assert!(s.ivf_index().is_none());
        assert!(s.top_k_entities_approx(0, 3, 1).is_none());

        s.set_index_config(Some(daakg_index::IvfConfig::new(3)));
        let first = Arc::clone(s.ivf_index().expect("configured"));
        let second = Arc::clone(s.ivf_index().expect("configured"));
        assert!(Arc::ptr_eq(&first, &second), "index built exactly once");
        // Clones share the already-built index.
        let clone = s.clone();
        assert!(Arc::ptr_eq(&first, clone.ivf_index().unwrap()));

        // Full probe reproduces the exact engine, scores bitwise equal.
        let (n1, n2) = s.entity_counts();
        for e1 in 0..n1 as u32 {
            for k in [1usize, 4, n2] {
                let exact = s.top_k_entities(e1, k);
                let approx = s.top_k_entities_approx(e1, k, first.nlist()).unwrap();
                assert_eq!(exact.len(), approx.len());
                for (x, a) in exact.iter().zip(&approx) {
                    assert_eq!(x.0, a.0, "e1={e1} k={k}");
                    assert_eq!(x.1.to_bits(), a.1.to_bits(), "e1={e1} k={k}");
                }
            }
            let full = s.rank_entities_approx(e1, first.nlist()).unwrap();
            assert_eq!(full.len(), n2);
        }
        // Partial probes return exact scores for whatever they surface.
        let probed = s.top_k_entities_approx(0, n2, 1).unwrap();
        assert!(!probed.is_empty() && probed.len() <= n2);

        // Reconfiguring discards the built index.
        s.set_index_config(Some(daakg_index::IvfConfig::new(2)));
        assert!(!Arc::ptr_eq(&first, s.ivf_index().unwrap()));
        s.set_index_config(None);
        assert!(s.ivf_index().is_none());
    }

    #[test]
    fn mean_embeddings_can_raise_relation_similarity() {
        let mut s = build_snapshot();
        s.use_mean_embeddings = false;
        let without = s.sim_relation(0, 0);
        s.use_mean_embeddings = true;
        let with = s.sim_relation(0, 0);
        assert!(with >= without);
    }
}
