//! TransE: translation-based embedding, `f_er(h, r, t) = ‖h + r − t‖`.

use crate::model::{names, KgEmbedding, ModelKind, RelationBound, TableParams};
use daakg_autograd::{init, Graph, ParamStore, TapeSession, Tensor, Var};
use daakg_graph::KnowledgeGraph;
use rand::rngs::StdRng;

/// The TransE model (Bordes et al., 2013).
///
/// The simplest geometric scorer and — per Table 6 of the paper — the one
/// with the *most accurate* inference-power bounds, because the tail of a
/// triple is determined exactly: `t = h + r`, so the difference vector is
/// the relation embedding itself and the bound `d` is zero.
pub struct TransE {
    num_entities: usize,
    num_base_relations: usize,
    dim: usize,
}

impl TransE {
    /// Build a TransE model for the shape of `kg`.
    pub fn new(kg: &KnowledgeGraph, dim: usize) -> Self {
        Self {
            num_entities: kg.num_entities(),
            num_base_relations: kg.num_relations(),
            dim,
        }
    }

    /// Build from explicit counts (used by tests and synthetic setups).
    pub fn with_shape(num_entities: usize, num_base_relations: usize, dim: usize) -> Self {
        Self {
            num_entities,
            num_base_relations,
            dim,
        }
    }

    /// `‖h + r − t‖` over already-gathered batch rows.
    fn score_from_vars(g: &mut Graph, h: Var, r: Var, t: Var) -> Var {
        let hr = g.add(h, r);
        let diff = g.sub(hr, t);
        g.rows_l2norm(diff)
    }
}

impl KgEmbedding for TransE {
    fn kind(&self) -> ModelKind {
        ModelKind::TransE
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn relation_dim(&self) -> usize {
        self.dim
    }

    fn num_entities(&self) -> usize {
        self.num_entities
    }

    fn num_base_relations(&self) -> usize {
        self.num_base_relations
    }

    fn init_params(&self, rng: &mut StdRng, store: &mut ParamStore, prefix: &str) {
        store.insert(
            names::qualified(prefix, names::ENT),
            init::uniform_embedding(rng, self.num_entities, self.dim),
        );
        store.insert(
            names::qualified(prefix, names::REL),
            init::uniform_embedding(rng, 2 * self.num_base_relations, self.dim),
        );
    }

    fn encode_entities(&self, s: &mut TapeSession, store: &ParamStore, prefix: &str) -> Var {
        s.param(store, &names::qualified(prefix, names::ENT))
    }

    fn encode_relations(&self, s: &mut TapeSession, store: &ParamStore, prefix: &str) -> Var {
        s.param(store, &names::qualified(prefix, names::REL))
    }

    fn score_triples(
        &self,
        g: &mut Graph,
        ents: Var,
        rels: Var,
        heads: &[u32],
        rel_ids: &[u32],
        tails: &[u32],
    ) -> Var {
        let h = g.gather_rows(ents, heads);
        let r = g.gather_rows(rels, rel_ids);
        let t = g.gather_rows(ents, tails);
        Self::score_from_vars(g, h, r, t)
    }

    fn table_params(&self, prefix: &str) -> Option<TableParams> {
        Some(TableParams {
            ent: names::qualified(prefix, names::ENT),
            rel: names::qualified(prefix, names::REL),
        })
    }

    /// The tape oracle of the closed-form `O_er` kernel (`crate::kernel`),
    /// which trains TransE everywhere else.
    #[cfg(test)]
    fn score_triples_sparse(
        &self,
        s: &mut TapeSession,
        store: &ParamStore,
        prefix: &str,
        heads: &[u32],
        rel_ids: &[u32],
        tails: &[u32],
    ) -> Var {
        let tp = self.table_params(prefix).expect("TransE is a table model");
        let h = s.gather_param(store, &tp.ent, heads);
        let r = s.gather_param(store, &tp.rel, rel_ids);
        let t = s.gather_param(store, &tp.ent, tails);
        Self::score_from_vars(&mut s.graph, h, r, t)
    }

    fn entity_matrix(&self, store: &ParamStore, prefix: &str) -> Tensor {
        store.get(&names::qualified(prefix, names::ENT)).clone()
    }

    fn relation_matrix(&self, store: &ParamStore, prefix: &str) -> Tensor {
        let full = store.get(&names::qualified(prefix, names::REL));
        let indices: Vec<u32> = (0..self.num_base_relations as u32).collect();
        full.gather_rows(&indices)
    }

    fn score_one(&self, ents: &Tensor, rels_full: &Tensor, h: u32, r: u32, t: u32) -> f32 {
        let hrow = ents.row(h as usize);
        let rrow = rels_full.row(r as usize);
        let trow = ents.row(t as usize);
        hrow.iter()
            .zip(rrow)
            .zip(trow)
            .map(|((hv, rv), tv)| {
                let d = hv + rv - tv;
                d * d
            })
            .sum::<f32>()
            .sqrt()
    }

    fn relation_bound(
        &self,
        store: &ParamStore,
        prefix: &str,
        r: u32,
        _rng: &mut StdRng,
        _m_samples: usize,
    ) -> RelationBound {
        // Closed form (Sect. 5.2): solving f_er(e1, r, e2) = 0 gives the
        // unique e2 = e1 + r, so r̃ = r and d = 0.
        let rels = store.get(&names::qualified(prefix, names::REL));
        RelationBound::exact(rels.row(r as usize).to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn tiny_model() -> (TransE, ParamStore) {
        let model = TransE::with_shape(4, 2, 8);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        model.init_params(&mut rng, &mut store, "g1.");
        (model, store)
    }

    #[test]
    fn init_shapes() {
        let (model, store) = tiny_model();
        assert_eq!(store.get("g1.ent").shape(), (4, 8));
        // Reverse relations double the table.
        assert_eq!(store.get("g1.rel").shape(), (4, 8));
        assert_eq!(model.relation_matrix(&store, "g1.").shape(), (2, 8));
    }

    #[test]
    fn perfect_translation_scores_zero() {
        let (model, mut store) = tiny_model();
        // Force e0 + r0 = e1 exactly.
        let mut ents = store.get("g1.ent").clone();
        let h: Vec<f32> = ents.row(0).to_vec();
        let r: Vec<f32> = store.get("g1.rel").row(0).to_vec();
        for (i, v) in ents.row_mut(1).iter_mut().enumerate() {
            *v = h[i] + r[i];
        }
        store.insert("g1.ent", ents);
        let ents = model.entity_matrix(&store, "g1.");
        let rels = store.get("g1.rel").clone();
        assert!(model.score_one(&ents, &rels, 0, 0, 1) < 1e-6);
        assert!(model.score_one(&ents, &rels, 0, 0, 2) > 1e-3);
    }

    #[test]
    fn tape_score_matches_snapshot_score() {
        let (model, store) = tiny_model();
        let mut g = TapeSession::new();
        let ents = model.encode_entities(&mut g, &store, "g1.");
        let rels = model.encode_relations(&mut g, &store, "g1.");
        let s = model.score_triples(&mut g.graph, ents, rels, &[0, 1], &[0, 1], &[2, 3]);
        let snap_e = model.entity_matrix(&store, "g1.");
        let snap_r = store.get("g1.rel").clone();
        let s0 = model.score_one(&snap_e, &snap_r, 0, 0, 2);
        let s1 = model.score_one(&snap_e, &snap_r, 1, 1, 3);
        assert!((g.value(s).get(0, 0) - s0).abs() < 1e-5);
        assert!((g.value(s).get(1, 0) - s1).abs() < 1e-5);
    }

    #[test]
    fn relation_bound_is_exact() {
        let (model, store) = tiny_model();
        let mut rng = StdRng::seed_from_u64(1);
        let b = model.relation_bound(&store, "g1.", 1, &mut rng, 5);
        assert_eq!(b.bound, 0.0);
        assert_eq!(b.diff, store.get("g1.rel").row(1).to_vec());
    }

    #[test]
    fn gradients_flow_to_tables() {
        let (model, store) = tiny_model();
        let mut g = TapeSession::new();
        let ents = model.encode_entities(&mut g, &store, "g1.");
        let rels = model.encode_relations(&mut g, &store, "g1.");
        let s = model.score_triples(&mut g.graph, ents, rels, &[0], &[0], &[1]);
        let loss = g.sum_all(s);
        g.backward(loss);
        assert!(g.grad(ents).is_some());
        assert!(g.grad(rels).is_some());
        // Only rows 0 and 1 of the entity table receive gradient.
        let ge = g.grad(ents).unwrap();
        assert!(ge.row(0).iter().any(|v| v.abs() > 0.0));
        assert!(ge.row(1).iter().any(|v| v.abs() > 0.0));
        assert!(ge.row(3).iter().all(|v| *v == 0.0));
    }
}
