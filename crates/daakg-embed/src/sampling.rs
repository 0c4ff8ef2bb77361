//! Negative sampling for the margin losses of Eq. (1) and Eq. (3).
//!
//! Because every asserted triple also has a synthetic reverse triple, the
//! fake triple sets `T̃` are generated by corrupting *tails only* (the paper
//! notes this explicitly under Eq. (1)).

use daakg_graph::{FxHashSet, KnowledgeGraph};
use rand::rngs::StdRng;
use rand::Rng;

/// Flat triple arrays (parallel vectors) used by the trainers; includes the
/// synthetic reverse triples with relation ids offset by `num_relations`.
#[derive(Debug, Clone, Default)]
pub struct TripleArrays {
    /// Head entity ids.
    pub heads: Vec<u32>,
    /// Relation ids (reverse relations offset by the base count).
    pub rels: Vec<u32>,
    /// Tail entity ids.
    pub tails: Vec<u32>,
}

impl TripleArrays {
    /// Build forward + reverse triple arrays from a KG.
    pub fn with_reverses(kg: &KnowledgeGraph) -> Self {
        let nr = kg.num_relations() as u32;
        let nt = kg.num_triples();
        let mut out = Self {
            heads: Vec::with_capacity(2 * nt),
            rels: Vec::with_capacity(2 * nt),
            tails: Vec::with_capacity(2 * nt),
        };
        for t in kg.triples() {
            out.heads.push(t.head.raw());
            out.rels.push(t.rel.raw());
            out.tails.push(t.tail.raw());
            out.heads.push(t.tail.raw());
            out.rels.push(t.rel.raw() + nr);
            out.tails.push(t.head.raw());
        }
        out
    }

    /// Number of stored triples.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// True if no triples are stored.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Select the subset at the given indices.
    pub fn select(&self, idx: &[usize]) -> TripleArrays {
        TripleArrays {
            heads: idx.iter().map(|&i| self.heads[i]).collect(),
            rels: idx.iter().map(|&i| self.rels[i]).collect(),
            tails: idx.iter().map(|&i| self.tails[i]).collect(),
        }
    }
}

/// Tail-corruption sampler with a filter against asserted triples.
pub struct NegativeSampler {
    num_entities: u32,
    /// Asserted (head, rel, tail) set (including reverses) for filtering.
    asserted: FxHashSet<(u32, u32, u32)>,
}

impl NegativeSampler {
    /// Build a sampler for the triples in `arrays`.
    pub fn new(num_entities: usize, arrays: &TripleArrays) -> Self {
        let mut asserted = FxHashSet::default();
        for i in 0..arrays.len() {
            asserted.insert((arrays.heads[i], arrays.rels[i], arrays.tails[i]));
        }
        Self {
            num_entities: num_entities as u32,
            asserted,
        }
    }

    /// For each positive `(h, r, t)` in the batch, draw `k` corrupted tails
    /// that do not form asserted triples into `tails` (cleared first);
    /// slot `i·k + j` is positive `i`'s `j`-th. A negative's head and
    /// relation are its positive's.
    pub fn sample_tails(
        &self,
        rng: &mut StdRng,
        batch: &TripleArrays,
        k: usize,
        tails: &mut Vec<u32>,
    ) {
        assert!(self.num_entities > 0, "cannot sample from an empty KG");
        tails.clear();
        for i in 0..batch.len() {
            let (h, r) = (batch.heads[i], batch.rels[i]);
            for _ in 0..k {
                // Rejection-sample a non-asserted tail; cap attempts so a
                // pathological dense relation cannot loop forever.
                let mut tail = rng.gen_range(0..self.num_entities);
                for _ in 0..16 {
                    if tail != batch.tails[i] && !self.asserted.contains(&(h, r, tail)) {
                        break;
                    }
                    tail = rng.gen_range(0..self.num_entities);
                }
                tails.push(tail);
            }
        }
    }

    /// [`NegativeSampler::sample_tails`] with the positives' heads and
    /// relations repeated alongside, as the tape-built scorers take them.
    pub fn corrupt_tails(&self, rng: &mut StdRng, batch: &TripleArrays, k: usize) -> TripleArrays {
        let repeat = |v: &[u32]| v.iter().flat_map(|&x| std::iter::repeat_n(x, k)).collect();
        let (heads, rels, mut tails) = (repeat(&batch.heads), repeat(&batch.rels), Vec::new());
        self.sample_tails(rng, batch, k, &mut tails);
        TripleArrays { heads, rels, tails }
    }
}

/// Sampler for the entity–class loss (Eq. 3): negative entities that do not
/// belong to the class.
pub struct ClassNegativeSampler {
    num_entities: u32,
    /// Membership set `(entity, class)`.
    members: FxHashSet<(u32, u32)>,
}

impl ClassNegativeSampler {
    /// Build from a KG's type assertions.
    pub fn new(kg: &KnowledgeGraph) -> Self {
        let mut members = FxHashSet::default();
        for a in kg.type_assertions() {
            members.insert((a.entity.raw(), a.class.raw()));
        }
        Self {
            num_entities: kg.num_entities() as u32,
            members,
        }
    }

    /// Draw one entity that is (probably) not a member of `class`.
    pub fn sample_non_member(&self, rng: &mut StdRng, class: u32) -> u32 {
        let mut e = rng.gen_range(0..self.num_entities);
        for _ in 0..16 {
            if !self.members.contains(&(e, class)) {
                return e;
            }
            e = rng.gen_range(0..self.num_entities);
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daakg_graph::kg::example_dbpedia;
    use rand::SeedableRng;

    #[test]
    fn reverse_triples_are_appended() {
        let kg = example_dbpedia();
        let arrays = TripleArrays::with_reverses(&kg);
        assert_eq!(arrays.len(), 2 * kg.num_triples());
        // Even positions forward, odd positions reversed with offset rel id.
        let nr = kg.num_relations() as u32;
        for i in (1..arrays.len()).step_by(2) {
            assert!(arrays.rels[i] >= nr);
            assert_eq!(arrays.heads[i], arrays.tails[i - 1]);
            assert_eq!(arrays.tails[i], arrays.heads[i - 1]);
        }
    }

    #[test]
    fn corrupt_tails_avoids_asserted_triples() {
        let kg = example_dbpedia();
        let arrays = TripleArrays::with_reverses(&kg);
        let sampler = NegativeSampler::new(kg.num_entities(), &arrays);
        let mut rng = StdRng::seed_from_u64(5);
        let neg = sampler.corrupt_tails(&mut rng, &arrays, 3);
        assert_eq!(neg.len(), arrays.len() * 3);
        let mut violations = 0;
        for i in 0..neg.len() {
            if sampler
                .asserted
                .contains(&(neg.heads[i], neg.rels[i], neg.tails[i]))
            {
                violations += 1;
            }
        }
        // Rejection sampling is capped, so rare violations are tolerated but
        // must be the exception.
        assert!(
            violations <= neg.len() / 10,
            "too many violations: {violations}"
        );
    }

    /// What the sampler drew for this batch at seed 5 before tails were
    /// split from the repeated positives.
    const PINNED_TAILS: [u32; 6] = [3, 0, 3, 4, 0, 5];

    /// The tail draws are pinned for a fixed seed: the sampler consumes
    /// the generator draw for draw as it always has, and
    /// `corrupt_tails` is `sample_tails` with the positives repeated.
    #[test]
    fn sampled_tails_are_pinned_for_a_fixed_seed() {
        let kg = example_dbpedia();
        let arrays = TripleArrays::with_reverses(&kg);
        let sampler = NegativeSampler::new(kg.num_entities(), &arrays);
        let batch = arrays.select(&[0, 1, 2]);
        let mut tails = vec![99];
        sampler.sample_tails(&mut StdRng::seed_from_u64(5), &batch, 2, &mut tails);
        assert_eq!(tails, PINNED_TAILS);
        let neg = sampler.corrupt_tails(&mut StdRng::seed_from_u64(5), &batch, 2);
        assert_eq!(neg.tails, tails);
        for i in 0..neg.len() {
            assert_eq!(
                (neg.heads[i], neg.rels[i]),
                (batch.heads[i / 2], batch.rels[i / 2])
            );
        }
    }

    #[test]
    fn select_subsets() {
        let kg = example_dbpedia();
        let arrays = TripleArrays::with_reverses(&kg);
        let sub = arrays.select(&[0, 2]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.heads[0], arrays.heads[0]);
        assert_eq!(sub.heads[1], arrays.heads[2]);
    }

    #[test]
    fn class_negatives_are_non_members_mostly() {
        let kg = example_dbpedia();
        let sampler = ClassNegativeSampler::new(&kg);
        let person = kg.class_by_name("Person").unwrap().raw();
        let mut rng = StdRng::seed_from_u64(1);
        let mj = kg.entity_by_name("Michael Jackson").unwrap().raw();
        for _ in 0..20 {
            let e = sampler.sample_non_member(&mut rng, person);
            assert_ne!(e, mj, "sampled the only member of Person");
        }
    }
}
