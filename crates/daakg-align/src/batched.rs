//! Batched cosine-similarity engine with bounded top-k selection.
//!
//! The naive ranking path computes, per query, `n` cosines — each
//! re-deriving both row norms — followed by a full `O(n log n)` sort. Over a
//! semi-supervised round that is `O(n²·d)` work with two avoidable factors:
//! repeated normalization and full sorts when only the head of the ranking
//! is consumed.
//!
//! [`BatchedSimilarity`] removes both:
//!
//! 1. both matrices are **L2-normalized once** at construction (zero rows
//!    stay zero, preserving the `cos(0, ·) = 0` convention of
//!    [`daakg_autograd::tensor::cosine`]), after which cosine similarity is
//!    a plain dot product;
//! 2. whole query *blocks* are scored against the transposed candidate
//!    matrix by one register-tiled scan kernel instead of `n` scalar
//!    loops — the same kernel feeds top-k selection and
//!    [`BatchedSimilarity::round_scan`], the fused Eq. 6 + mining pass of
//!    a training round;
//! 3. when only the best `k` candidates are needed, selection uses a
//!    **bounded binary min-heap** (`O(n log k)`) instead of sorting the full
//!    candidate vector.
//!
//! Ordering is deterministic: descending score, ties broken by ascending
//! candidate index — exactly the order the naive stable sort produces for
//! index-ordered candidates, so the fast path is drop-in compatible with the
//! oracle.
//!
//! The selection and scan machinery itself — the bounded
//! [`daakg_index::TopKSelector`], the register-tiled
//! [`daakg_index::scan_block`] kernel with its runtime AVX2+FMA dispatch,
//! and the cosine-convention row normalization — lives in `daakg-index`,
//! shared with the IVF approximate index: both engines score candidates
//! with the *same* kernel over the *same* normalized rows, which is what
//! makes a full-probe IVF search bitwise comparable to this exhaustive
//! engine.

use crate::weights::EntityWeights;
use daakg_autograd::tensor::dot_unrolled as dot;
use daakg_autograd::Tensor;
use daakg_index::scan::{
    normalize_rows_cosine, observe_each, scan_block, scan_block_observed, ScoreSink, TopKSelector,
};
use std::ops::Range;
use std::sync::Arc;

/// Number of query rows scored per blocked matmul. 64 query rows × 10k
/// candidates × 4 B = 2.5 MB of scores per block — large enough to amortize
/// the kernel, small enough to stay cache- and memory-friendly.
const QUERY_BLOCK: usize = 64;

/// The result of [`BatchedSimilarity::round_scan`].
#[derive(Debug, Clone)]
pub struct RoundScan {
    /// Each query's best candidate and its score, `None` when there are no
    /// candidates — bitwise `top_k_block(.., 1)`.
    pub best: Vec<Option<(u32, f32)>>,
    /// The Eq. 6 weights: row maxima (`left`) and column maxima (`right`)
    /// of the similarity matrix, negatives clamped to zero.
    pub weights: EntityWeights,
}

/// Per-candidate maxima of the scanned scores, starting at zero (so
/// negatives clamp to zero) — the column side of Eq. 6.
struct ColumnMax(Vec<f32>);

impl ScoreSink for ColumnMax {
    #[inline(always)]
    fn observe(&mut self, id: u32, score: f32) {
        let c = &mut self.0[id as usize];
        if score > *c {
            *c = score;
        }
    }

    /// Over consecutive ids, the same `if s > c { c = s }` per column over
    /// the tile's rows in order, vectorized across columns; any other ids
    /// (repeats included) take [`observe_each`].
    #[inline(always)]
    fn observe_tile<const R: usize, const W: usize>(
        &mut self,
        ids: &[u32; W],
        tile: &[[f32; W]; R],
    ) {
        let first = ids[0] as usize;
        let consecutive = ids
            .iter()
            .enumerate()
            .fold(true, |all, (t, &id)| all & (id as usize == first + t));
        match self.0.get_mut(first..first + W) {
            Some(cols) if consecutive => {
                for (t, c) in cols.iter_mut().enumerate() {
                    let mut m = *c;
                    for row in tile {
                        if row[t] > m {
                            m = row[t];
                        }
                    }
                    *c = m;
                }
            }
            _ => observe_each(self, ids, tile),
        }
    }
}

/// Pre-normalized similarity engine between a query matrix (mapped left
/// embeddings) and a candidate matrix (right embeddings).
#[derive(Debug, Clone)]
pub struct BatchedSimilarity {
    /// Row-normalized query matrix (`n₁ × d`), shared with the engines
    /// [`BatchedSimilarity::with_candidates`] derives.
    queries: Arc<Tensor>,
    /// Row-normalized candidate matrix (`n₂ × d`).
    candidates: Tensor,
    /// The same candidates transposed (`d × n₂`). Column-major access lets
    /// the block kernels accumulate whole vectors of scores *vertically*
    /// (one lane per candidate), eliminating the per-score horizontal
    /// reduction that dominates row-major dot products at small `d`.
    candidates_t: Tensor,
    /// Identity column→id map for the shared scan kernel (the exhaustive
    /// engine scans candidates in index order; the IVF index passes its
    /// permuted inverted-list ids through the same parameter).
    identity_ids: Vec<u32>,
}

impl BatchedSimilarity {
    /// Build the engine: both inputs are copied and row-normalized once.
    /// Rows that `cosine` would treat as zero vectors (squared norm ≤
    /// `f32::EPSILON`) are zeroed, so their similarity to everything is
    /// exactly `0.0` — the naive convention.
    pub fn new(queries: &Tensor, candidates: &Tensor) -> Self {
        assert_eq!(
            queries.cols(),
            candidates.cols(),
            "query/candidate dimension mismatch"
        );
        let mut q = queries.clone();
        normalize_rows_cosine(&mut q);
        Self::over(Arc::new(q), candidates)
    }

    /// The engine for the same queries over `candidates`, sharing this
    /// engine's normalized query matrix instead of normalizing another
    /// copy. Normalization is per row, so the result is bitwise what
    /// [`BatchedSimilarity::new`] builds from the same inputs — at the
    /// memory cost of the candidate side alone.
    pub fn with_candidates(&self, candidates: &Tensor) -> Self {
        assert_eq!(
            self.queries.cols(),
            candidates.cols(),
            "query/candidate dimension mismatch"
        );
        Self::over(Arc::clone(&self.queries), candidates)
    }

    fn over(queries: Arc<Tensor>, candidates: &Tensor) -> Self {
        let mut c = candidates.clone();
        normalize_rows_cosine(&mut c);
        let ct = c.transpose();
        let identity_ids = (0..c.rows() as u32).collect();
        Self {
            queries,
            candidates: c,
            candidates_t: ct,
            identity_ids,
        }
    }

    /// The row-normalized query matrix (`n₁ × d`). Row `q` is the unit (or
    /// zero) vector every scoring path uses for query `q` — hand these rows
    /// to [`daakg_index::IvfIndex::search`] so approximate scores agree
    /// bitwise with this engine over the probed candidates.
    pub fn normalized_queries(&self) -> &Tensor {
        &self.queries
    }

    /// The row-normalized candidate matrix (`n₂ × d`) — the exact rows an
    /// [`daakg_index::IvfIndex`] must be built over for full-probe searches
    /// to reproduce this engine's results.
    pub fn normalized_candidates(&self) -> &Tensor {
        &self.candidates
    }

    /// One row-normalized query row.
    pub fn normalized_query(&self, query: u32) -> &[f32] {
        self.queries.row(query as usize)
    }

    /// Number of query rows.
    pub fn num_queries(&self) -> usize {
        self.queries.rows()
    }

    /// Number of candidate rows.
    pub fn num_candidates(&self) -> usize {
        self.candidates.rows()
    }

    /// Cosine similarity of one (query, candidate) pair.
    pub fn score(&self, query: u32, candidate: u32) -> f32 {
        dot(
            self.queries.row(query as usize),
            self.candidates.row(candidate as usize),
        )
    }

    /// All candidate scores for one query, in candidate-index order.
    ///
    /// Computed as `d` axpy passes over the transposed candidate matrix —
    /// a pure vertical accumulation with no per-score reduction.
    pub fn scores(&self, query: u32) -> Vec<f32> {
        let q = self.queries.row(query as usize);
        let n = self.num_candidates();
        let ct = self.candidates_t.as_slice();
        let mut out = vec![0.0f32; n];
        for (l, &b) in q.iter().enumerate() {
            let c_row = &ct[l * n..(l + 1) * n];
            for (o, &cv) in out.iter_mut().zip(c_row) {
                *o += b * cv;
            }
        }
        out
    }

    /// Best `k` candidates of one query, descending score, index-ascending
    /// on ties: the one-query case of [`BatchedSimilarity::top_k_block`],
    /// `O(n log k)` via a bounded heap with no score buffer.
    pub fn top_k(&self, query: u32, k: usize) -> Vec<(u32, f32)> {
        let mut lists = self.top_k_cols(&[query], 0..self.num_candidates(), k);
        lists.pop().expect("one ranking per query")
    }

    /// Best `k` candidates for every query in `queries`. Returns one
    /// ranking per query, in input order.
    ///
    /// The queries split into contiguous ranges run across the calling
    /// thread's worker budget ([`daakg_parallel::par_map_ranges`]). Each
    /// range is gathered into `QUERY_BLOCK`-row panels, and the scan
    /// kernel sweeps the candidate slab in cache-sized column blocks,
    /// scoring each block with every query tile of the panel while it is
    /// resident; per-query bounded heaps absorb the scores on the fly, so
    /// no `|queries| × n₂` score block is ever materialized. A query's
    /// selection does not depend on its range or panel, so the rankings
    /// are bitwise the same at any budget.
    pub fn top_k_block(&self, queries: &[u32], k: usize) -> Vec<Vec<(u32, f32)>> {
        self.top_k_block_in(queries, k, daakg_parallel::num_threads())
    }

    /// [`BatchedSimilarity::top_k_block`] over at most `parts` query
    /// ranges, and no more ranges than the queries fill panels.
    pub(crate) fn top_k_block_in(
        &self,
        queries: &[u32],
        k: usize,
        parts: usize,
    ) -> Vec<Vec<(u32, f32)>> {
        let parts = parts.min(queries.len().div_ceil(QUERY_BLOCK));
        let all = 0..self.num_candidates();
        daakg_parallel::par_map_ranges(queries.len(), parts, |range| {
            self.top_k_cols(&queries[range], all.clone(), k)
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// [`BatchedSimilarity::top_k_block`] over the candidates `cols` only,
    /// with global ids: the columns are scanned in place in the transposed
    /// slab. A score does not depend on its column range, so the
    /// partitions of a serving set score bitwise what a whole-slab scan
    /// does.
    pub(crate) fn top_k_cols(
        &self,
        queries: &[u32],
        cols: Range<usize>,
        k: usize,
    ) -> Vec<Vec<(u32, f32)>> {
        let (d, n) = (self.queries.cols(), self.num_candidates());
        let mut out = Vec::with_capacity(queries.len());
        for chunk in queries.chunks(QUERY_BLOCK) {
            let panel = self.queries.gather_rows(chunk);
            let mut selectors: Vec<TopKSelector> =
                chunk.iter().map(|_| TopKSelector::new(k)).collect();
            scan_block(
                panel.as_slice(),
                d,
                chunk.len(),
                &self.candidates_t.as_slice()[cols.start..],
                n,
                &self.identity_ids[cols.clone()],
                &mut selectors,
            );
            out.extend(selectors.into_iter().map(TopKSelector::into_sorted));
        }
        out
    }

    /// One fused pass over the whole `n₁ × n₂` similarity matrix for a
    /// training round: each query's best candidate together with the Eq. 6
    /// row and column maxima.
    ///
    /// The queries split into contiguous ranges scanned in parallel
    /// ([`daakg_parallel::par_map_ranges`]) by the shared scan kernel; each
    /// worker keeps its own column maxima and the merge takes their `max`,
    /// which is the same in any order. A score does not depend on which
    /// panel or tile computed it, so `best` is bitwise what
    /// [`BatchedSimilarity::top_k_block`] returns for `k = 1`, at any
    /// thread count.
    pub fn round_scan(&self) -> RoundScan {
        self.round_scan_in(daakg_parallel::num_threads())
    }

    /// [`BatchedSimilarity::round_scan`] over `parts` query ranges.
    pub(crate) fn round_scan_in(&self, parts: usize) -> RoundScan {
        let (n1, n2, d) = (
            self.num_queries(),
            self.num_candidates(),
            self.queries.cols(),
        );
        let shards = daakg_parallel::par_map_ranges(n1, parts, |range| {
            let mut best = Vec::with_capacity(range.len());
            let mut cols = ColumnMax(vec![0.0; n2]);
            let mut start = range.start;
            while start < range.end {
                let end = (start + QUERY_BLOCK).min(range.end);
                let mut selectors: Vec<TopKSelector> =
                    (start..end).map(|_| TopKSelector::new(1)).collect();
                scan_block_observed(
                    &self.queries.as_slice()[start * d..end * d],
                    d,
                    end - start,
                    self.candidates_t.as_slice(),
                    n2,
                    &self.identity_ids,
                    &mut selectors,
                    &mut cols,
                );
                best.extend(selectors.into_iter().map(|s| s.into_sorted().pop()));
                start = end;
            }
            (best, cols.0)
        });
        let mut best = Vec::with_capacity(n1);
        let mut right = vec![0.0f32; n2];
        for (shard_best, shard_cols) in shards {
            best.extend(shard_best);
            for (r, c) in right.iter_mut().zip(shard_cols) {
                if c > *r {
                    *r = c;
                }
            }
        }
        // Row maxima clamp negatives to zero, exactly as the column side.
        let left = best
            .iter()
            .map(|b| match *b {
                Some((_, s)) if s > 0.0 => s,
                _ => 0.0,
            })
            .collect();
        RoundScan {
            best,
            weights: EntityWeights { left, right },
        }
    }

    /// The complete descending ranking of one query (all `n₂` candidates).
    /// Still benefits from one-time normalization and the vectorized score
    /// loop, but pays the full sort; prefer [`BatchedSimilarity::top_k`]
    /// when only the head of the ranking is consumed.
    pub fn rank_all(&self, query: u32) -> Vec<(u32, f32)> {
        let scores = self.scores(query);
        let mut v: Vec<(u32, f32)> = scores
            .into_iter()
            .enumerate()
            .map(|(j, s)| (j as u32, s))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Descending ranking of a restricted candidate set for one query.
    pub fn rank_candidates(&self, query: u32, candidates: &[u32]) -> Vec<(u32, f32)> {
        let q = self.queries.row(query as usize);
        let mut v: Vec<(u32, f32)> = candidates
            .iter()
            .map(|&j| (j, dot(q, self.candidates.row(j as usize))))
            .collect();
        // Stable sort keeps the caller's candidate order on ties, exactly
        // like the naive path it replaces.
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daakg_autograd::tensor::cosine;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect();
        Tensor::from_vec(rows, cols, data)
    }

    /// The naive oracle: per-query cosine scan + full stable sort, exactly
    /// the pre-engine `rank_entities` algorithm.
    fn naive_rank(queries: &Tensor, candidates: &Tensor, q: usize) -> Vec<(u32, f32)> {
        let mut v: Vec<(u32, f32)> = (0..candidates.rows() as u32)
            .map(|j| (j, cosine(queries.row(q), candidates.row(j as usize))))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v
    }

    #[test]
    fn scores_match_naive_cosine() {
        let q = random_matrix(12, 16, 1);
        let c = random_matrix(30, 16, 2);
        let engine = BatchedSimilarity::new(&q, &c);
        for i in 0..q.rows() as u32 {
            for j in 0..c.rows() as u32 {
                let fast = engine.score(i, j);
                let slow = cosine(q.row(i as usize), c.row(j as usize));
                assert!((fast - slow).abs() < 1e-5, "({i},{j}): {fast} vs {slow}");
            }
        }
    }

    #[test]
    fn zero_rows_keep_the_zero_convention() {
        let mut q = random_matrix(3, 8, 3);
        q.row_mut(1).fill(0.0);
        let mut c = random_matrix(4, 8, 4);
        c.row_mut(2).fill(0.0);
        let engine = BatchedSimilarity::new(&q, &c);
        for j in 0..4 {
            assert_eq!(engine.score(1, j), 0.0);
        }
        for i in 0..3 {
            assert_eq!(engine.score(i, 2), 0.0);
        }
    }

    #[test]
    fn tiny_norm_rows_match_the_naive_cosine_guard() {
        // Rows with norm ~1e-4 have squared norm below f32::EPSILON, so
        // `cosine` treats them as zero vectors; the engine must agree
        // instead of renormalizing them into full-strength unit vectors.
        let mut q = random_matrix(2, 8, 5);
        for v in q.row_mut(0).iter_mut() {
            *v *= 1e-4;
        }
        let c = random_matrix(3, 8, 6);
        let engine = BatchedSimilarity::new(&q, &c);
        for j in 0..3u32 {
            let naive = cosine(q.row(0), c.row(j as usize));
            assert_eq!(naive, 0.0, "test premise: cosine must see a zero row");
            assert_eq!(engine.score(0, j), 0.0, "engine diverged from cosine");
        }
        // The untouched row still scores normally.
        let naive = cosine(q.row(1), c.row(0));
        assert!((engine.score(1, 0) - naive).abs() < 1e-5);
    }

    #[test]
    fn top_k_matches_naive_prefix_on_random_inputs() {
        for seed in 0..5u64 {
            let q = random_matrix(10, 24, seed * 2 + 10);
            let c = random_matrix(200, 24, seed * 2 + 11);
            let engine = BatchedSimilarity::new(&q, &c);
            for qi in 0..10 {
                for k in [1usize, 5, 17, 200, 500] {
                    let fast = engine.top_k(qi as u32, k);
                    let slow = naive_rank(&q, &c, qi);
                    assert_eq!(fast.len(), k.min(200));
                    for (rank, (f, s)) in fast.iter().zip(&slow).enumerate() {
                        assert_eq!(f.0, s.0, "seed {seed} q{qi} k{k} rank {rank}");
                        assert!((f.1 - s.1).abs() < 1e-5);
                    }
                }
            }
        }
    }

    #[test]
    fn top_k_block_agrees_with_per_query_top_k() {
        let q = random_matrix(100, 8, 42); // exceeds one QUERY_BLOCK
        let c = random_matrix(50, 8, 43);
        let engine = BatchedSimilarity::new(&q, &c);
        let queries: Vec<u32> = (0..100).collect();
        let block = engine.top_k_block(&queries, 7);
        assert_eq!(block.len(), 100);
        for (qi, ranking) in block.iter().enumerate() {
            let single = engine.top_k(qi as u32, 7);
            assert_eq!(ranking.len(), single.len());
            for (a, b) in ranking.iter().zip(&single) {
                assert_eq!(a.0, b.0, "query {qi}");
                assert!((a.1 - b.1).abs() < 1e-5);
            }
        }
    }

    /// `top_k_block` splits its queries into ranges run across the worker
    /// budget: at every split, on the full budget and on both halves of a
    /// join, each ranking is bitwise a bounded selection over the query's
    /// `scores` (the kernel-free axpy path).
    #[test]
    fn top_k_block_is_bitwise_equal_at_every_budget() {
        let q = random_matrix(301, 12, 50); // five panels, a 1-query tail
        let mut c = random_matrix(97, 12, 51);
        let row = c.row(5).to_vec();
        c.row_mut(80).copy_from_slice(&row); // a tie across tiles
        let engine = BatchedSimilarity::new(&q, &c);
        let queries: Vec<u32> = (0..301u32).rev().collect();
        let bits = |lists: &[Vec<(u32, f32)>]| -> Vec<Vec<(u32, u32)>> {
            lists
                .iter()
                .map(|l| l.iter().map(|&(j, s)| (j, s.to_bits())).collect())
                .collect()
        };
        for k in [0, 1, 10, 97, 120] {
            let want: Vec<_> = queries
                .iter()
                .map(|&qi| daakg_index::top_k_of_scores(&engine.scores(qi), k))
                .collect();
            for parts in [1, 2, 4] {
                let got = engine.top_k_block_in(&queries, k, parts);
                assert_eq!(bits(&got), bits(&want), "k {k} parts {parts}");
            }
            let full = engine.top_k_block(&queries, k);
            assert_eq!(bits(&full), bits(&want), "k {k} full budget");
            let (left, right) = daakg_parallel::join(
                || engine.top_k_block(&queries, k),
                || engine.top_k_block(&queries, k),
            );
            assert_eq!(bits(&left), bits(&want), "k {k} left half budget");
            assert_eq!(bits(&right), bits(&want), "k {k} right half budget");
        }
    }

    /// `ColumnMax`'s tile override keeps per-score `observe`'s result bit
    /// for bit: over consecutive, repeated and descending ids, with `-0.0`,
    /// NaN, infinities and all-negative columns against the `+0.0` start.
    #[test]
    fn column_max_tile_matches_per_score_observe_bitwise() {
        let specials = [
            0.0f32,
            -0.0,
            f32::NAN,
            -1.0,
            0.5,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        let mut rng = StdRng::seed_from_u64(61);
        let id_sets: [Vec<u32>; 3] = [
            (4..20).collect(),
            (0..16).map(|t| t / 2).collect(),
            (0..16).rev().collect(),
        ];
        for ids in &id_sets {
            let ids: &[u32; 16] = ids.as_slice().try_into().unwrap();
            for trial in 0..64 {
                let mut draw = || match rng.gen_range(0usize..4) {
                    0 => specials[rng.gen_range(0..specials.len())],
                    1 => -rng.gen_range(0.0f32..1.0),
                    _ => rng.gen_range(-1.0f32..1.0),
                };
                let tile: [[f32; 16]; 4] = std::array::from_fn(|_| std::array::from_fn(|_| draw()));
                let (mut fast, mut slow) = (ColumnMax(vec![0.0; 24]), ColumnMax(vec![0.0; 24]));
                for _ in 0..2 {
                    fast.observe_tile(ids, &tile);
                    observe_each(&mut slow, ids, &tile);
                }
                let bits = |c: &ColumnMax| c.0.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&fast), bits(&slow), "ids {ids:?} trial {trial}");
            }
        }
    }

    /// `round_scan` against a one-score-at-a-time reference by bits: zero
    /// query rows and zero candidate rows score exactly `0.0` against the
    /// column maxima's `+0.0` start, and a candidate every query scores
    /// negatively keeps `+0.0`.
    #[test]
    fn round_scan_matches_the_scalar_reference_bitwise() {
        let mut q = random_matrix(11, 6, 70);
        for v in q.as_mut_slice().iter_mut() {
            *v = v.abs() + 0.01;
        }
        q.row_mut(4).fill(0.0);
        let mut c = random_matrix(70, 6, 71);
        c.row_mut(9).fill(0.0);
        for v in c.row_mut(17).iter_mut() {
            *v = -v.abs() - 0.01;
        }
        let engine = BatchedSimilarity::new(&q, &c);
        let (qn, cn) = (engine.normalized_queries(), engine.normalized_candidates());
        let mut right = vec![0.0f32; c.rows()];
        let mut best = Vec::new();
        for i in 0..q.rows() {
            let mut sel = TopKSelector::new(1);
            for (j, r) in right.iter_mut().enumerate() {
                let mut s = 0.0f32;
                for (a, b) in qn.row(i).iter().zip(cn.row(j)) {
                    s += a * b;
                }
                sel.push(j as u32, s);
                if s > *r {
                    *r = s;
                }
            }
            best.push(sel.into_sorted().pop().map(|(j, s)| (j, s.to_bits())));
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(right[9].to_bits(), 0.0f32.to_bits());
        assert_eq!(right[17].to_bits(), 0.0f32.to_bits());
        for parts in [1, 2, 3] {
            let scan = engine.round_scan_in(parts);
            let got: Vec<_> = scan
                .best
                .iter()
                .map(|b| b.map(|(j, s)| (j, s.to_bits())))
                .collect();
            assert_eq!(got, best, "parts {parts}");
            assert_eq!(bits(&scan.weights.right), bits(&right), "parts {parts}");
        }
    }

    #[test]
    fn round_scan_top1_matches_top_k_block_bitwise() {
        // (n₁, n₂, d, duplicate rows): n₁ % 4 ≠ 0 exercises the query
        // tail, n₂ < 16 only the candidate tail, and the duplicates tie
        // across the 16-column tile boundary (columns 3, 15, 16, 31).
        let cases = [
            (13usize, 40usize, 8usize, true),
            (7, 9, 6, false),
            (66, 37, 12, true),
            (5, 16, 4, false),
            (4, 33, 5, true),
        ];
        for (case, &(n1, n2, d, dup)) in cases.iter().enumerate() {
            let mut q = random_matrix(n1, d, 300 + case as u64);
            let mut c = random_matrix(n2, d, 400 + case as u64);
            if dup {
                let row = c.row(3).to_vec();
                for j in [15, 16, 31] {
                    if j < n2 {
                        c.row_mut(j).copy_from_slice(&row);
                    }
                }
                q.row_mut(0).copy_from_slice(&row);
                q.row_mut(n1 - 1).copy_from_slice(&row);
            }
            let engine = BatchedSimilarity::new(&q, &c);
            let queries: Vec<u32> = (0..n1 as u32).collect();
            let want: Vec<Option<(u32, u32)>> = engine
                .top_k_block(&queries, 1)
                .iter()
                .map(|r| r.first().map(|&(j, s)| (j, s.to_bits())))
                .collect();
            let naive = crate::weights::EntityWeights::compute(&q, &c);
            for parts in [1, 2] {
                let scan = engine.round_scan_in(parts);
                let got: Vec<Option<(u32, u32)>> = scan
                    .best
                    .iter()
                    .map(|b| b.map(|(j, s)| (j, s.to_bits())))
                    .collect();
                assert_eq!(got, want, "case {case} parts {parts}");
                if dup {
                    assert_eq!(scan.best[0].map(|b| b.0), Some(3), "lowest tied id wins");
                }
                let w = &scan.weights;
                for (a, b) in w.left.iter().zip(&naive.left) {
                    assert!((a - b).abs() < 1e-5, "case {case}: left {a} vs {b}");
                }
                for (a, b) in w.right.iter().zip(&naive.right) {
                    assert!((a - b).abs() < 1e-5, "case {case}: right {a} vs {b}");
                }
                assert_eq!((w.left.len(), w.right.len()), (n1, n2));
            }
        }
    }

    #[test]
    fn ties_resolve_to_ascending_index() {
        // Duplicate candidate rows ⇒ exactly equal scores; the lower index
        // must win, mirroring the stable naive sort over 0..n candidates.
        let q = Tensor::from_rows(&[&[1.0, 0.0]]);
        let c = Tensor::from_rows(&[&[0.0, 1.0], &[1.0, 0.0], &[1.0, 0.0], &[1.0, 0.0]]);
        let engine = BatchedSimilarity::new(&q, &c);
        let top = engine.top_k(0, 3);
        assert_eq!(
            top.iter().map(|t| t.0).collect::<Vec<_>>(),
            vec![1, 2, 3],
            "tie-break must prefer lower candidate indices"
        );
        let all = engine.rank_all(0);
        assert_eq!(all[3].0, 0);
    }

    #[test]
    fn rank_all_is_descending_and_complete() {
        let q = random_matrix(4, 8, 77);
        let c = random_matrix(61, 8, 78);
        let engine = BatchedSimilarity::new(&q, &c);
        let all = engine.rank_all(2);
        assert_eq!(all.len(), 61);
        for w in all.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn rank_candidates_restricts_and_sorts() {
        let q = random_matrix(2, 8, 5);
        let c = random_matrix(20, 8, 6);
        let engine = BatchedSimilarity::new(&q, &c);
        let sub = engine.rank_candidates(0, &[3, 9, 15]);
        assert_eq!(sub.len(), 3);
        for w in sub.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        for (j, _) in &sub {
            assert!([3, 9, 15].contains(j));
        }
    }

    #[test]
    fn empty_k_and_oversized_k() {
        let q = random_matrix(1, 4, 8);
        let c = random_matrix(5, 4, 9);
        let engine = BatchedSimilarity::new(&q, &c);
        assert!(engine.top_k(0, 0).is_empty());
        assert_eq!(engine.top_k(0, 10).len(), 5);
    }

    #[test]
    fn block_top_k_handles_k_zero_and_k_beyond_n() {
        let q = random_matrix(70, 8, 91); // spans two query blocks
        let c = random_matrix(9, 8, 92);
        let engine = BatchedSimilarity::new(&q, &c);
        let queries: Vec<u32> = (0..70).collect();

        let empty = engine.top_k_block(&queries, 0);
        assert_eq!(empty.len(), 70);
        assert!(empty.iter().all(|r| r.is_empty()), "k = 0 returns nothing");

        // k far beyond n must degrade to the complete ranking and agree
        // with the naive oracle at every position.
        let over = engine.top_k_block(&queries, 50);
        for (qi, ranking) in over.iter().enumerate() {
            assert_eq!(ranking.len(), 9, "k ≥ n yields all candidates");
            let slow = naive_rank(&q, &c, qi);
            for (rank, (f, s)) in ranking.iter().zip(&slow).enumerate() {
                assert_eq!(f.0, s.0, "q{qi} rank {rank}");
                assert!((f.1 - s.1).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn duplicate_scores_agree_with_naive_oracle_everywhere() {
        // Build a candidate matrix of only 3 distinct rows repeated, so
        // nearly every score is duplicated; ordering must still match the
        // stable naive sort exactly (ascending candidate index on ties).
        let base = random_matrix(3, 6, 7);
        let rows: Vec<&[f32]> = (0..24).map(|j| base.row(j % 3)).collect();
        let c = Tensor::from_rows(&rows);
        let q = random_matrix(5, 6, 8);
        let engine = BatchedSimilarity::new(&q, &c);
        let queries: Vec<u32> = (0..5).collect();
        for k in [1usize, 4, 24, 30] {
            let block = engine.top_k_block(&queries, k);
            for (qi, fast) in block.iter().enumerate() {
                let slow = naive_rank(&q, &c, qi);
                assert_eq!(fast.len(), k.min(24));
                for (rank, (f, s)) in fast.iter().zip(&slow).enumerate() {
                    assert_eq!(f.0, s.0, "k {k} q{qi} rank {rank}: tie order diverged");
                    assert!((f.1 - s.1).abs() < 1e-6);
                }
            }
        }
    }

    #[test]
    fn non_finite_rows_agree_with_naive_oracle() {
        // NaN and ±inf rows follow the degenerate-row convention: they
        // score exactly 0.0 against everything (and everything scores 0.0
        // against them), in both the batched engine and `cosine`.
        let mut q = random_matrix(4, 8, 55);
        q.row_mut(1).fill(f32::NAN);
        q.row_mut(2)[3] = f32::INFINITY;
        let mut c = random_matrix(12, 8, 56);
        c.row_mut(0).fill(f32::NEG_INFINITY);
        c.row_mut(5)[0] = f32::NAN;
        let engine = BatchedSimilarity::new(&q, &c);

        for i in 0..4u32 {
            for j in 0..12u32 {
                let fast = engine.score(i, j);
                let slow = cosine(q.row(i as usize), c.row(j as usize));
                assert!(fast.is_finite(), "engine produced non-finite score");
                assert!(slow.is_finite(), "cosine produced non-finite score");
                assert!((fast - slow).abs() < 1e-5, "({i},{j}): {fast} vs {slow}");
            }
        }
        // Degenerate queries score 0.0 flat.
        for j in 0..12u32 {
            assert_eq!(engine.score(1, j), 0.0);
            assert_eq!(engine.score(2, j), 0.0);
        }

        // Full agreement of the ranking paths, including k ≥ n.
        let queries: Vec<u32> = (0..4).collect();
        for k in [1usize, 3, 12, 20] {
            let block = engine.top_k_block(&queries, k);
            for (qi, fast) in block.iter().enumerate() {
                let slow = naive_rank(&q, &c, qi);
                for (rank, (f, s)) in fast.iter().zip(&slow).enumerate() {
                    assert_eq!(f.0, s.0, "k {k} q{qi} rank {rank}");
                    assert!((f.1 - s.1).abs() < 1e-5);
                }
            }
        }
    }
}
