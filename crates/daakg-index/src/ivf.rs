//! The inverted-file index: [`IvfIndex`], sublinear top-k over normalized
//! embeddings.
//!
//! An exhaustive top-k scan is `O(n·d)` per query. The IVF pattern cuts
//! that to an `nprobe / nlist` fraction of the corpus: a **coarse
//! quantizer** (spherical k-means, [`crate::kmeans`]) partitions the
//! candidates into `nlist` clusters once per index build; at query time
//! only the `nprobe` lists whose centroids are most similar to the query
//! are scanned. Scores inside a probed list are **exact cosines** (dot
//! products over the same normalized rows the exhaustive engine uses), so
//! the only approximation is *which* candidates get scored — the returned
//! ranking needs no separate re-ranking pass, and a full probe
//! (`nprobe == nlist`) reproduces the exhaustive result set exactly,
//! bit-for-bit, ties included.
//!
//! # Layout
//!
//! Inverted lists are stored **centroid-major and transposed**: list `l`
//! owns one contiguous `d × len(l)` block (`d` rows of `len(l)` floats),
//! so a probe streams a single cache-friendly slab through the same
//! register-tiled scan kernel ([`crate::scan::scan_block`]) the
//! exhaustive engine runs on — one query scores 64 list rows per tile —
//! with the list's original candidate ids remapped at push time.

use crate::kmeans::spherical_kmeans;
use crate::scan::{scan_block, TopKSelector};
use daakg_autograd::tensor::dot_unrolled as dot;
use daakg_autograd::Tensor;
use daakg_graph::DaakgError;
use daakg_telemetry::HistogramHandle;
use std::ops::Range;

/// Per-stage timing handles for an IVF search: the coarse centroid
/// **probe** (pick the `nprobe` closest lists) vs. the inverted-list
/// **scan** (exact cosines over the probed lists). Default handles are
/// no-ops, so un-instrumented searches pay nothing.
#[derive(Debug, Clone, Default)]
pub struct SearchSpans {
    /// Time spent ranking centroids to choose the probe order.
    pub probe: HistogramHandle,
    /// Time spent scanning the probed inverted lists.
    pub scan: HistogramHandle,
}

/// Build-time configuration of an [`IvfIndex`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IvfConfig {
    /// Number of inverted lists (k-means clusters). Clamped to the corpus
    /// size at build time; `√n`-ish values are the usual sweet spot.
    pub nlist: usize,
    /// Maximum Lloyd iterations of the coarse quantizer.
    pub max_iters: usize,
    /// Seed of the k-means++ initialization.
    pub seed: u64,
}

impl IvfConfig {
    /// A configuration with `nlist` lists and default training settings.
    pub fn new(nlist: usize) -> Self {
        Self {
            nlist,
            max_iters: 10,
            seed: 42,
        }
    }

    /// Validate the configuration (`nlist ≥ 1`, `max_iters ≥ 1`).
    pub fn validate(&self) -> Result<(), DaakgError> {
        if self.nlist == 0 {
            return Err(DaakgError::invalid("IvfConfig", "nlist must be at least 1"));
        }
        if self.max_iters == 0 {
            return Err(DaakgError::invalid(
                "IvfConfig",
                "max_iters must be at least 1",
            ));
        }
        Ok(())
    }
}

/// An immutable IVF index over one normalized candidate matrix.
///
/// Build once per published snapshot ([`IvfIndex::build`]), then serve
/// any number of concurrent [`IvfIndex::search`] calls — the index is
/// read-only after construction and `Send + Sync`.
#[derive(Debug, Clone)]
pub struct IvfIndex {
    dim: usize,
    /// Unit-norm (or zero) centroid rows, `nlist × d`.
    centroids: Tensor,
    /// `nlist + 1` offsets into `ids` (in vectors); list `l` spans
    /// `offsets[l]..offsets[l + 1]`.
    offsets: Vec<usize>,
    /// Original candidate ids grouped by list, ascending within a list.
    ids: Vec<u32>,
    /// Concatenated transposed list blocks: list `l` occupies
    /// `offsets[l] * d .. offsets[l + 1] * d`, laid out as `d` rows of
    /// `len(l)` floats.
    blocks_t: Vec<f32>,
}

impl IvfIndex {
    /// Build the index over `normalized` (`n × d`; rows unit-norm or zero,
    /// exactly as produced by [`crate::scan::normalize_rows_cosine`] —
    /// share the exhaustive engine's normalized matrix so full-probe
    /// searches agree with it bitwise).
    ///
    /// `cfg.nlist` is clamped to `n`; an empty corpus yields an index
    /// whose searches return nothing.
    pub fn build(normalized: &Tensor, cfg: &IvfConfig) -> Self {
        Self::build_range(normalized, 0..normalized.rows(), cfg)
    }

    /// [`IvfIndex::build`] over rows `rows` of `normalized`, read in
    /// place; ids are local (`0..rows.len()`).
    pub fn build_range(normalized: &Tensor, rows: Range<usize>, cfg: &IvfConfig) -> Self {
        let (n, d) = (rows.len(), normalized.cols());
        let km = spherical_kmeans(normalized, rows.clone(), cfg.nlist, cfg.max_iters, cfg.seed);
        let nlist = km.centroids.rows();

        let mut counts = vec![0usize; nlist];
        for &c in &km.assignments {
            counts[c as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(nlist + 1);
        offsets.push(0usize);
        for &c in &counts {
            offsets.push(offsets.last().unwrap() + c);
        }

        // Fill ids list-by-list; iterating vectors in id order keeps each
        // list's ids ascending.
        let mut cursor = offsets[..nlist].to_vec();
        let mut ids = vec![0u32; n];
        for (i, &c) in km.assignments.iter().enumerate() {
            ids[cursor[c as usize]] = i as u32;
            cursor[c as usize] += 1;
        }

        // Transposed per-list blocks.
        let mut blocks_t = vec![0.0f32; n * d];
        for l in 0..nlist {
            let (start, end) = (offsets[l], offsets[l + 1]);
            let m = end - start;
            let block = &mut blocks_t[start * d..end * d];
            for (pos, &id) in ids[start..end].iter().enumerate() {
                let row = normalized.row(rows.start + id as usize);
                for (r, &v) in row.iter().enumerate() {
                    block[r * m + pos] = v;
                }
            }
        }

        Self {
            dim: d,
            centroids: km.centroids,
            offsets,
            ids,
            blocks_t,
        }
    }

    /// Number of inverted lists actually built (`cfg.nlist` clamped to the
    /// corpus size).
    pub fn nlist(&self) -> usize {
        self.centroids.rows()
    }

    /// Number of indexed vectors.
    pub fn num_vectors(&self) -> usize {
        self.ids.len()
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Length of inverted list `l`.
    pub fn list_len(&self, l: usize) -> usize {
        self.offsets[l + 1] - self.offsets[l]
    }

    /// The original candidate ids of inverted list `l`, ascending.
    pub fn list_ids(&self, l: usize) -> &[u32] {
        &self.ids[self.offsets[l]..self.offsets[l + 1]]
    }

    /// The coarse-quantizer centroids (`nlist × d`, unit or zero rows).
    pub fn centroids(&self) -> &Tensor {
        &self.centroids
    }

    /// The raw list offsets (`nlist + 1` entries, in vectors) — persistence
    /// codec access.
    pub(crate) fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw grouped candidate ids — persistence codec access.
    pub(crate) fn raw_ids(&self) -> &[u32] {
        &self.ids
    }

    /// The raw concatenated transposed list blocks — persistence codec
    /// access.
    pub(crate) fn raw_blocks_t(&self) -> &[f32] {
        &self.blocks_t
    }

    /// Reassemble an index from persisted parts. The caller (the codec in
    /// [`crate::persist`]) has already validated the structural invariants.
    pub(crate) fn from_raw_parts(
        dim: usize,
        centroids: Tensor,
        offsets: Vec<usize>,
        ids: Vec<u32>,
        blocks_t: Vec<f32>,
    ) -> Self {
        Self {
            dim,
            centroids,
            offsets,
            ids,
            blocks_t,
        }
    }

    /// Fraction of the corpus a search at `nprobe` scans, averaged over
    /// queries that probe the `nprobe` *largest* lists (an upper bound on
    /// the per-query cost; useful for tuning tables).
    pub fn probed_fraction_bound(&self, nprobe: usize) -> f64 {
        let n = self.num_vectors();
        if n == 0 {
            return 0.0;
        }
        let mut lens: Vec<usize> = (0..self.nlist()).map(|l| self.list_len(l)).collect();
        lens.sort_unstable_by(|a, b| b.cmp(a));
        let probed: usize = lens.iter().take(nprobe.clamp(1, lens.len())).sum();
        probed as f64 / n as f64
    }

    /// The `nprobe` lists most similar to `query`, best first (ties to
    /// the lower list index).
    fn probe_order(&self, query: &[f32], nprobe: usize) -> Vec<(u32, f32)> {
        let mut sel = TopKSelector::new(nprobe.clamp(1, self.nlist().max(1)));
        for c in 0..self.nlist() {
            sel.push(c as u32, dot(query, self.centroids.row(c)));
        }
        sel.into_sorted()
    }

    /// Top-`k` candidates for one normalized query row, scanning only the
    /// `nprobe` most-similar inverted lists. Scores are exact cosines;
    /// ordering is (score desc, id asc), identical to the exhaustive
    /// engine's. `nprobe` is clamped to `1..=nlist`; at `nprobe == nlist`
    /// the result equals the exhaustive top-k exactly.
    pub fn search(&self, query: &[f32], k: usize, nprobe: usize) -> Vec<(u32, f32)> {
        self.search_observed(query, k, nprobe, &SearchSpans::default())
    }

    /// [`IvfIndex::search`] with per-stage spans: `spans.probe` times the
    /// centroid ranking, `spans.scan` the inverted-list scans. Results
    /// are bitwise identical to the unobserved path.
    pub fn search_observed(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
        spans: &SearchSpans,
    ) -> Vec<(u32, f32)> {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        if self.num_vectors() == 0 || k == 0 {
            return Vec::new();
        }
        let probe_span = spans.probe.span();
        let order = self.probe_order(query, nprobe);
        drop(probe_span);
        let _scan_span = spans.scan.span();
        let mut sel = TopKSelector::new(k.min(self.num_vectors()));
        for (l, _) in order {
            let l = l as usize;
            let (start, end) = (self.offsets[l], self.offsets[l + 1]);
            let m = end - start;
            if m == 0 {
                continue;
            }
            scan_block(
                query,
                self.dim,
                1,
                &self.blocks_t[start * self.dim..end * self.dim],
                m,
                &self.ids[start..end],
                std::slice::from_mut(&mut sel),
            );
        }
        sel.into_sorted()
    }

    /// [`IvfIndex::search`] for each row index in `rows` of the
    /// normalized query matrix `queries`, sharded across worker threads
    /// via [`daakg_parallel::par_map_ranges`]. Returns one ranking per
    /// row, in input order.
    ///
    /// Callers already inside a `daakg-parallel` shard (e.g. a service
    /// batch query) should loop over [`IvfIndex::search`] instead of
    /// nesting this.
    pub fn search_batch(
        &self,
        queries: &Tensor,
        rows: &[u32],
        k: usize,
        nprobe: usize,
    ) -> Vec<Vec<(u32, f32)>> {
        assert_eq!(queries.cols(), self.dim, "query dimension mismatch");
        let shards = daakg_parallel::num_threads();
        let mut out = Vec::with_capacity(rows.len());
        for shard in daakg_parallel::par_map_ranges(rows.len(), shards, |range| {
            rows[range]
                .iter()
                .map(|&q| self.search(queries.row(q as usize), k, nprobe))
                .collect::<Vec<_>>()
        }) {
            out.extend(shard);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::normalize_rows_cosine;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_unit_matrix(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect();
        let mut t = Tensor::from_vec(rows, cols, data);
        normalize_rows_cosine(&mut t);
        t
    }

    /// Strictly-sequential dot product — the exact accumulation order of
    /// both the tile kernel and its axpy tail, so the oracle is bitwise
    /// comparable (unlike `dot_unrolled`, which reassociates).
    fn dot_seq(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    /// Exhaustive oracle over the same normalized rows: (score desc, id
    /// asc), exactly the `BatchedSimilarity` order.
    fn brute_top_k(queries: &Tensor, cands: &Tensor, q: usize, k: usize) -> Vec<(u32, f32)> {
        let mut v: Vec<(u32, f32)> = (0..cands.rows() as u32)
            .map(|j| (j, dot_seq(queries.row(q), cands.row(j as usize))))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    /// Property: full-probe IVF equals the exhaustive oracle bitwise, for
    /// every query of random small corpora.
    #[test]
    fn full_probe_matches_brute_force_bitwise() {
        for seed in 0..6u64 {
            let n = 40 + (seed as usize) * 37;
            let cands = random_unit_matrix(n, 16, seed * 2 + 1);
            let queries = random_unit_matrix(12, 16, seed * 2 + 2);
            let index = IvfIndex::build(&cands, &IvfConfig::new(1 + seed as usize * 3));
            for q in 0..queries.rows() {
                for k in [1usize, 7, n, n + 10] {
                    let got = index.search(queries.row(q), k, index.nlist());
                    let expect = brute_top_k(&queries, &cands, q, k);
                    assert_eq!(got.len(), expect.len(), "seed {seed} q{q} k{k}");
                    for (rank, (g, e)) in got.iter().zip(&expect).enumerate() {
                        assert_eq!(g.0, e.0, "seed {seed} q{q} k{k} rank {rank}");
                        assert_eq!(
                            g.1.to_bits(),
                            e.1.to_bits(),
                            "seed {seed} q{q} k{k} rank {rank}: scores must be bitwise equal"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn duplicate_rows_tie_break_by_global_id_under_full_probe() {
        // Only 3 distinct candidate rows repeated: nearly every score is
        // tied, and the permuted list order must not leak into the result.
        let base = random_unit_matrix(3, 8, 5);
        let rows: Vec<&[f32]> = (0..30).map(|i| base.row(i % 3)).collect();
        let cands = Tensor::from_rows(&rows);
        let queries = random_unit_matrix(4, 8, 6);
        let index = IvfIndex::build(&cands, &IvfConfig::new(4));
        for q in 0..queries.rows() {
            for k in [1usize, 5, 30] {
                let got = index.search(queries.row(q), k, index.nlist());
                let expect = brute_top_k(&queries, &cands, q, k);
                assert_eq!(got, expect, "q{q} k{k}");
            }
        }
    }

    #[test]
    fn partial_probe_is_a_subset_with_exact_scores() {
        let cands = random_unit_matrix(300, 12, 11);
        let queries = random_unit_matrix(8, 12, 12);
        let index = IvfIndex::build(&cands, &IvfConfig::new(16));
        for q in 0..queries.rows() {
            let got = index.search(queries.row(q), 10, 2);
            assert!(got.len() <= 10);
            for w in got.windows(2) {
                assert!(w[0].1 >= w[1].1, "descending order");
            }
            for &(id, s) in &got {
                let exact = dot_seq(queries.row(q), cands.row(id as usize));
                assert_eq!(s.to_bits(), exact.to_bits(), "probed scores are exact");
            }
        }
    }

    #[test]
    fn lists_partition_the_corpus() {
        let cands = random_unit_matrix(137, 10, 3);
        let index = IvfIndex::build(&cands, &IvfConfig::new(9));
        assert_eq!(index.num_vectors(), 137);
        let mut seen = [false; 137];
        for l in 0..index.nlist() {
            let ids = index.list_ids(l);
            assert!(!ids.is_empty(), "list {l} empty");
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids ascending");
            for &id in ids {
                assert!(!seen[id as usize], "id {id} in two lists");
                seen[id as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every vector indexed");
        assert!(index.probed_fraction_bound(index.nlist()) > 0.999);
        assert!(index.probed_fraction_bound(1) < 1.0);
    }

    #[test]
    fn edge_cases_k_zero_oversized_and_empty() {
        let cands = random_unit_matrix(20, 6, 8);
        let queries = random_unit_matrix(2, 6, 9);
        let index = IvfIndex::build(&cands, &IvfConfig::new(4));
        assert!(index.search(queries.row(0), 0, 2).is_empty());
        assert_eq!(index.search(queries.row(0), 50, index.nlist()).len(), 20);
        // nprobe is clamped: 0 behaves like 1, huge behaves like nlist.
        assert!(!index.search(queries.row(0), 3, 0).is_empty());
        assert_eq!(
            index.search(queries.row(0), 50, 10_000).len(),
            20,
            "oversized nprobe degrades to a full probe"
        );
        let empty = IvfIndex::build(&Tensor::zeros(0, 6), &IvfConfig::new(4));
        assert!(empty.search(queries.row(0), 5, 1).is_empty());
        assert_eq!(empty.nlist(), 0);
    }

    #[test]
    fn search_batch_matches_per_query_search() {
        let cands = random_unit_matrix(150, 8, 21);
        let queries = random_unit_matrix(40, 8, 22);
        let index = IvfIndex::build(&cands, &IvfConfig::new(8));
        let rows: Vec<u32> = (0..40).collect();
        let batch = index.search_batch(&queries, &rows, 6, 3);
        assert_eq!(batch.len(), 40);
        for (q, ranking) in batch.iter().enumerate() {
            assert_eq!(ranking, &index.search(queries.row(q), 6, 3), "query {q}");
        }
    }

    #[test]
    fn config_validation_rejects_degenerate_values() {
        assert!(IvfConfig::new(8).validate().is_ok());
        assert!(IvfConfig::new(0).validate().is_err());
        let bad = IvfConfig {
            max_iters: 0,
            ..IvfConfig::new(8)
        };
        assert!(bad.validate().is_err());
    }
}
