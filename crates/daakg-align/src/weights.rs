//! Dangling-entity weights (Eq. 6): `w_e = max_{e'∈E'} S(e, e')`.
//!
//! Dangling entities — those with no counterpart in the other KG — receive
//! low weights because nothing on the other side is similar to them; the
//! weights then soft-remove their triples from the mean-embedding
//! computations (Eq. 7, 9).

use daakg_autograd::tensor::cosine;
use daakg_autograd::Tensor;

/// Entity weights for both directions.
#[derive(Debug, Clone, Default)]
pub struct EntityWeights {
    /// `w_e` for each entity of the left KG.
    pub left: Vec<f32>,
    /// `w_{e'}` for each entity of the right KG.
    pub right: Vec<f32>,
}

impl EntityWeights {
    /// Uniform weights of 1.0 (used before the first alignment round).
    pub fn uniform(n_left: usize, n_right: usize) -> Self {
        Self {
            left: vec![1.0; n_left],
            right: vec![1.0; n_right],
        }
    }

    /// Compute `w_e = max_{e'} cos(A_ent·e, e')` and symmetrically
    /// `w_{e'} = max_e cos(A_ent·e, e')` from the mapped left entity matrix
    /// and the right entity matrix.
    ///
    /// Negative similarities are clamped to zero so weights stay valid
    /// convex-combination coefficients.
    ///
    /// This is the naive reference. Training computes the same weights
    /// with [`BatchedSimilarity::round_scan`](crate::batched::BatchedSimilarity::round_scan),
    /// the blocked parallel pass that also mines each query's best match.
    pub fn compute(mapped_left: &Tensor, right: &Tensor) -> Self {
        let n1 = mapped_left.rows();
        let n2 = right.rows();
        let mut left = vec![0.0f32; n1];
        let mut right_w = vec![0.0f32; n2];
        for (i, lw) in left.iter_mut().enumerate() {
            let a = mapped_left.row(i);
            for (j, rw) in right_w.iter_mut().enumerate() {
                let s = cosine(a, right.row(j));
                if s > *lw {
                    *lw = s;
                }
                if s > *rw {
                    *rw = s;
                }
            }
        }
        Self {
            left,
            right: right_w,
        }
    }

    /// The pairwise triple weight `min(w_e, w_{e'})` used in Eq. (7) — here
    /// for two entities of the *same* KG side (`left`).
    pub fn triple_weight_left(&self, head: u32, tail: u32) -> f32 {
        self.left[head as usize].min(self.left[tail as usize])
    }

    /// As [`Self::triple_weight_left`] for the right KG.
    pub fn triple_weight_right(&self, head: u32, tail: u32) -> f32 {
        self.right[head as usize].min(self.right[tail as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_scan_weights_match_naive_compute() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let mk = |rows: usize, rng: &mut StdRng| {
            let data = (0..rows * 6).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            Tensor::from_vec(rows, 6, data)
        };
        // More rows than one 64-query block so the chunking is exercised.
        let mapped_left = mk(130, &mut rng);
        let right = mk(70, &mut rng);
        let naive = EntityWeights::compute(&mapped_left, &right);
        let engine = crate::batched::BatchedSimilarity::new(&mapped_left, &right);
        let fast = engine.round_scan().weights;
        assert_eq!(naive.left.len(), fast.left.len());
        assert_eq!(naive.right.len(), fast.right.len());
        for (a, b) in naive
            .left
            .iter()
            .zip(&fast.left)
            .chain(naive.right.iter().zip(&fast.right))
        {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn matched_entities_get_high_weight() {
        // Left entity 0 is identical to right entity 1; left entity 1 is
        // orthogonal to everything on the right (dangling).
        let mapped_left = Tensor::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 0.0, 1.0]]);
        let right = Tensor::from_rows(&[&[0.0, 1.0, 0.0], &[1.0, 0.0, 0.0]]);
        let w = EntityWeights::compute(&mapped_left, &right);
        assert!((w.left[0] - 1.0).abs() < 1e-6);
        assert!(w.left[1].abs() < 1e-6);
        assert!((w.right[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn uniform_weights() {
        let w = EntityWeights::uniform(3, 2);
        assert_eq!(w.left, vec![1.0; 3]);
        assert_eq!(w.right, vec![1.0; 2]);
        assert_eq!(w.triple_weight_left(0, 2), 1.0);
    }

    #[test]
    fn triple_weight_is_min() {
        let w = EntityWeights {
            left: vec![0.9, 0.2],
            right: vec![0.5, 0.7],
        };
        assert!((w.triple_weight_left(0, 1) - 0.2).abs() < 1e-6);
        assert!((w.triple_weight_right(0, 1) - 0.5).abs() < 1e-6);
    }
}
