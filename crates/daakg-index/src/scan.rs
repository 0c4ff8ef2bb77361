//! The shared candidate-scan kernel: bounded top-k selection fed by a
//! register-tiled dot-product sweep (4 queries × 16 candidates, and
//! 1 × 64, 2 × 32 or 3 × 16 for a panel's tail rows).
//!
//! This module hosts the machinery that both similarity engines run on:
//!
//! * [`TopKSelector`] — a bounded binary min-heap-of-worst accumulator
//!   with a cached rejection threshold, keeping the best `k` candidates
//!   under the canonical *(score descending, id ascending)* order;
//! * [`scan_block`] — the blocked scan: a gathered query panel against a
//!   *transposed* candidate block, swept in cache-sized column blocks,
//!   accumulating register tiles vertically (no horizontal reductions),
//!   rejecting a tile row below its selector's threshold with one vector
//!   compare, with an AVX2+FMA re-compilation selected by runtime
//!   dispatch on x86-64;
//! * [`normalize_rows_cosine`] — the one-time row normalization that
//!   turns cosine similarity into a plain dot product while preserving
//!   the `cos(0, ·) = 0` degenerate-row convention.
//!
//! The exhaustive engine (`daakg_align::BatchedSimilarity`) scans whole
//! candidate matrices with column ids `0..n`; the IVF index
//! ([`crate::IvfIndex`]) scans one inverted list at a time, where column
//! `j` of the block is some *permuted* original id — hence the `ids`
//! remap slice threaded through the kernel, so selectors always hold
//! original candidate ids and tie-breaking stays globally consistent.
//!
//! Unlike a selector specialized to index-ordered streams, pushes here
//! are **order-independent**: an equal-score candidate with a smaller id
//! arriving *late* still evicts the retained worse entry. That is what
//! makes a full-probe (`nprobe == nlist`) IVF search reproduce the
//! exhaustive scan's result set exactly, ties included, even though its
//! candidates stream list-by-list instead of in id order.

use daakg_autograd::Tensor;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scored candidate ordered by (score desc, id asc).
///
/// The `Ord` implementation is *reversed* so that [`BinaryHeap`] (a
/// max-heap) exposes the **worst** retained candidate at the top, which is
/// what bounded top-k eviction needs.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry {
    score: f32,
    id: u32,
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Worse-first: lower score is "greater" for the max-heap; on equal
        // scores the larger id is worse (ascending-id preference).
        other
            .score
            .total_cmp(&self.score)
            .then(other.id.cmp(&self.id).reverse())
    }
}

/// A bounded top-k accumulator: a min-heap-of-worst with a fast rejection
/// path, so streaming `n` candidates costs `O(n)` compares plus
/// `O(retained · log k)` heap updates.
///
/// Selection order is exact under *(score desc, id asc)* regardless of the
/// order candidates are pushed in — required by the IVF search path, whose
/// candidates arrive grouped by inverted list rather than by id.
#[derive(Debug, Clone)]
pub struct TopKSelector {
    k: usize,
    heap: BinaryHeap<HeapEntry>,
    /// Score of the worst retained candidate once the heap is full
    /// (`+∞` when `k == 0`, `−∞` while filling). Caching it flat makes the
    /// overwhelmingly common rejection a single register compare, with no
    /// heap access at all.
    threshold: f32,
}

impl TopKSelector {
    /// A selector retaining the best `k` pushed candidates.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
            threshold: if k == 0 {
                f32::INFINITY
            } else {
                f32::NEG_INFINITY
            },
        }
    }

    /// Offer one candidate. Strictly-worse-than-threshold candidates cost
    /// a single compare; equal-score candidates fall through to an exact
    /// (score, id) comparison against the worst retained entry.
    #[inline]
    pub fn push(&mut self, id: u32, score: f32) {
        if score < self.threshold {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(HeapEntry { score, id });
            if self.heap.len() == self.k {
                self.threshold = self.heap.peek().map_or(f32::NEG_INFINITY, |w| w.score);
            }
            return;
        }
        // Full heap and score >= threshold: evict only when strictly
        // better under (score desc, id asc) — which also rejects
        // everything when k == 0 (the heap is empty, threshold is +inf,
        // and only a +inf score reaches this point, with nothing to peek).
        let Some(&worst) = self.heap.peek() else {
            return;
        };
        if score > worst.score || (score == worst.score && id < worst.id) {
            self.heap.pop();
            self.heap.push(HeapEntry { score, id });
            self.threshold = self.heap.peek().map_or(f32::NEG_INFINITY, |w| w.score);
        }
    }

    /// The rejection threshold: [`TopKSelector::push`] rejects every
    /// `score < threshold()` without touching the heap.
    #[inline]
    pub(crate) fn threshold(&self) -> f32 {
        self.threshold
    }

    /// Number of candidates currently retained.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drain into final ranking order (descending score, ascending id on
    /// ties).
    pub fn into_sorted(self) -> Vec<(u32, f32)> {
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(|e| (e.id, e.score))
            .collect()
    }
}

/// Normalize each row to unit L2 norm, zeroing rows whose *squared* norm
/// is ≤ `f32::EPSILON` or non-finite — the exact degenerate-row guard of
/// [`daakg_autograd::tensor::cosine`], so normalized-dot-product scores
/// agree with the naive convention both for tiny-but-nonzero rows (which
/// `cosine` treats as zero vectors) and for rows containing NaN/infinite
/// components.
pub fn normalize_rows_cosine(t: &mut Tensor) {
    for r in 0..t.rows() {
        let row = t.row_mut(r);
        let sq: f32 = row.iter().map(|x| x * x).sum();
        if !sq.is_finite() || sq <= f32::EPSILON {
            row.fill(0.0);
        } else {
            let inv = 1.0 / sq.sqrt();
            for x in row.iter_mut() {
                *x *= inv;
            }
        }
    }
}

/// Candidates per register tile of a 4-query tile: 4 queries × 16
/// candidates = 64 accumulators, two 8-lane vectors per query on AVX2.
const SCAN_TILE: usize = 16;

/// Candidates per register tile of the 1–3-query tail, by tail rows:
/// 1 × 64, 2 × 32 and 3 × 16, so at most 64 accumulators (eight 8-lane
/// vectors on AVX2) stay in registers while each slab load feeds every
/// tail query. Wider tails spill the accumulators.
const TAIL_TILES: [usize; 3] = [64, 32, 16];

/// Bytes of the transposed slab swept per column block: every query tile
/// of a panel scans one block while it is L2-resident before the sweep
/// moves on, instead of streaming the whole slab once per tile.
const BLOCK_BYTES: usize = 256 * 1024;

/// Columns per [`BLOCK_BYTES`] block at depth `d`, a whole number of the
/// widest tail tiles.
fn block_cols(d: usize) -> usize {
    let w = TAIL_TILES[0];
    (BLOCK_BYTES / (4 * d.max(1))).max(w) / w * w
}

/// A second consumer of the scan kernel's scores, fed beside the
/// per-query selectors: every `(candidate id, score)` the kernel computes
/// is offered to it as well. `()` observes nothing — the plain top-k scan.
///
/// The scores of one column reach the sink in query order; the kernel
/// sweeps column blocks, so columns of different blocks interleave.
pub trait ScoreSink {
    /// Observe one computed score of candidate `id`.
    fn observe(&mut self, id: u32, score: f32);

    /// Observe one register tile: `tile[r][t]` is query row `r`'s score of
    /// candidate `ids[t]`. The default observes column by column, rows in
    /// order within a column ([`observe_each`]); a sink may override it
    /// with a vectorized body that keeps that result.
    #[inline(always)]
    fn observe_tile<const R: usize, const W: usize>(
        &mut self,
        ids: &[u32; W],
        tile: &[[f32; W]; R],
    ) {
        observe_each(self, ids, tile);
    }
}

/// [`ScoreSink::observe_tile`]'s default: one [`ScoreSink::observe`] per
/// score, column by column, rows in order within a column.
#[inline(always)]
pub fn observe_each<S: ScoreSink + ?Sized, const R: usize, const W: usize>(
    sink: &mut S,
    ids: &[u32; W],
    tile: &[[f32; W]; R],
) {
    for (t, &id) in ids.iter().enumerate() {
        for row in tile {
            sink.observe(id, row[t]);
        }
    }
}

impl ScoreSink for () {
    #[inline(always)]
    fn observe(&mut self, _id: u32, _score: f32) {}
}

/// Scores of `R` queries against candidate columns `j0..j0 + W` of the
/// transposed slab, accumulated *vertically*: per depth step one `W`-wide
/// slab load is broadcast-multiplied by each query's scalar and added to
/// that query's accumulator row — no horizontal reduction, and each load
/// feeds `R` rows. Every score starts from `0.0` and adds `q[l] * c[l]`
/// for `l = 0..d` in order, a separate multiply and add, so its bits do
/// not depend on the tile shape that computed it.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
fn tile_scores<const R: usize, const W: usize>(
    qs: &[&[f32]; R],
    ct: &[f32],
    ld: usize,
    j0: usize,
    d: usize,
) -> [[f32; W]; R] {
    let qs: [&[f32]; R] = std::array::from_fn(|r| &qs[r][..d]);
    let mut acc = [[0.0f32; W]; R];
    for l in 0..d {
        let slab: &[f32; W] = ct[l * ld + j0..]
            .first_chunk()
            .expect("a tile lies within the slab");
        for r in 0..R {
            let b = qs[r][l];
            for t in 0..W {
                acc[r][t] += b * slab[t];
            }
        }
    }
    acc
}

/// Feed one computed tile to the selectors and the sink. A row whose
/// every score is below its selector's threshold is skipped with one
/// vector compare: `!(s < threshold)` is the exact negation of
/// [`TopKSelector::push`]'s reject test (NaN included), and nothing is
/// pushed in between, so the skip rejects only what `push` would. A row
/// with a passing lane is pushed in column order.
// `!(s < threshold)` is meant: it passes NaN, as `push` does.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
#[inline(always)]
fn emit_tile<S: ScoreSink, const R: usize, const W: usize>(
    tile: &[[f32; W]; R],
    ids: &[u32; W],
    selectors: &mut [TopKSelector],
    sink: &mut S,
) {
    for (row, sel) in tile.iter().zip(selectors.iter_mut()) {
        let threshold = sel.threshold();
        if row.iter().fold(false, |any, &s| any | !(s < threshold)) {
            for (&id, &s) in ids.iter().zip(row) {
                sel.push(id, s);
            }
        }
    }
    sink.observe_tile(ids, tile);
}

/// The ids of the `W` columns from `j`.
#[inline(always)]
fn tile_ids<const W: usize>(ids: &[u32], j: usize) -> &[u32; W] {
    ids[j..]
        .first_chunk()
        .expect("a tile lies within the columns")
}

/// Scan the columns `cols` for the `R` query rows `qs`: `W`-wide tiles,
/// then [`SCAN_TILE`]-wide ones, then single columns.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn sweep<S: ScoreSink, const R: usize, const W: usize>(
    qs: &[&[f32]; R],
    d: usize,
    ct: &[f32],
    ld: usize,
    ids: &[u32],
    cols: std::ops::Range<usize>,
    selectors: &mut [TopKSelector],
    sink: &mut S,
) {
    let mut j = cols.start;
    while j + W <= cols.end {
        let tile = tile_scores::<R, W>(qs, ct, ld, j, d);
        emit_tile(&tile, tile_ids(ids, j), selectors, sink);
        j += W;
    }
    while j + SCAN_TILE <= cols.end {
        let tile = tile_scores::<R, SCAN_TILE>(qs, ct, ld, j, d);
        emit_tile(&tile, tile_ids(ids, j), selectors, sink);
        j += SCAN_TILE;
    }
    while j < cols.end {
        let tile = tile_scores::<R, 1>(qs, ct, ld, j, d);
        emit_tile(&tile, tile_ids(ids, j), selectors, sink);
        j += 1;
    }
}

/// Scan every candidate column of a transposed block against a gathered
/// query panel (`nq` rows of `d` floats in `ps`), feeding the per-query
/// bounded selectors and the score sink.
///
/// `ct` is the *transposed* candidate block (`d` rows of `n` floats, `ld`
/// apart). The sweep is column-block outer: each [`BLOCK_BYTES`] block of
/// columns is scanned by every 4-query × 16-candidate register tile of the
/// panel, then by the [`TAIL_TILES`] tile of the panel's 1–3 tail rows,
/// while it stays cache-resident.
///
/// `ids[j]` is the id pushed for column `j` (`n = ids.len()`): the
/// identity map for an exhaustive scan, the inverted-list id slice for an
/// IVF probe.
///
/// `#[inline(always)]` so the `#[target_feature]` wrapper below inlines
/// this body and re-vectorizes it with the wider instruction set.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn scan_panel<S: ScoreSink>(
    ps: &[f32],
    d: usize,
    nq: usize,
    ct: &[f32],
    ld: usize,
    ids: &[u32],
    selectors: &mut [TopKSelector],
    sink: &mut S,
) {
    let n = ids.len();
    debug_assert!(d == 0 || ct.len() >= (d - 1) * ld + n);
    let rows = |qi: usize| &ps[qi * d..(qi + 1) * d];
    let block = block_cols(d);
    let mut c0 = 0;
    while c0 < n {
        let cols = c0..(c0 + block).min(n);
        let mut qi = 0;
        while qi + 4 <= nq {
            let qs = [rows(qi), rows(qi + 1), rows(qi + 2), rows(qi + 3)];
            let sel = &mut selectors[qi..qi + 4];
            sweep::<S, 4, SCAN_TILE>(&qs, d, ct, ld, ids, cols.clone(), sel, sink);
            qi += 4;
        }
        let sel = &mut selectors[qi..nq];
        match nq - qi {
            1 => sweep::<S, 1, { TAIL_TILES[0] }>(&[rows(qi)], d, ct, ld, ids, cols, sel, sink),
            2 => {
                let qs = [rows(qi), rows(qi + 1)];
                sweep::<S, 2, { TAIL_TILES[1] }>(&qs, d, ct, ld, ids, cols, sel, sink)
            }
            3 => {
                let qs = [rows(qi), rows(qi + 1), rows(qi + 2)];
                sweep::<S, 3, { TAIL_TILES[2] }>(&qs, d, ct, ld, ids, cols, sel, sink)
            }
            _ => {}
        }
        c0 += block;
    }
}

/// AVX2+FMA re-compilation of [`scan_panel`].
///
/// # Safety
/// Caller must verify `avx2` and `fma` are available at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[target_feature(enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn scan_panel_avx2<S: ScoreSink>(
    ps: &[f32],
    d: usize,
    nq: usize,
    ct: &[f32],
    ld: usize,
    ids: &[u32],
    selectors: &mut [TopKSelector],
    sink: &mut S,
) {
    scan_panel(ps, d, nq, ct, ld, ids, selectors, sink)
}

/// Scan a transposed candidate block against a query panel with the
/// widest compiled-in kernel the running CPU supports. The default x86-64
/// target only guarantees SSE2, but alignment servers virtually always
/// have AVX2+FMA — runtime dispatch keeps the binary portable while
/// serving wide SIMD on real hardware.
///
/// * `ps` — the query panel, `nq` contiguous rows of `d` floats;
/// * `ct` — the transposed candidate block, `d` rows of `n` floats `ld` apart;
/// * `ids` — the id pushed for each of the `n` columns (`n = ids.len()`);
/// * `selectors` — one bounded accumulator per query row (`≥ nq`).
pub fn scan_block(
    ps: &[f32],
    d: usize,
    nq: usize,
    ct: &[f32],
    ld: usize,
    ids: &[u32],
    selectors: &mut [TopKSelector],
) {
    scan_block_observed(ps, d, nq, ct, ld, ids, selectors, &mut ())
}

/// [`scan_block`] that also offers every computed score to `sink` — one
/// pass yields both the per-query selections and whatever the sink
/// accumulates (e.g. per-candidate maxima). Scores are bitwise the ones
/// the selectors see.
#[allow(clippy::too_many_arguments)]
pub fn scan_block_observed<S: ScoreSink>(
    ps: &[f32],
    d: usize,
    nq: usize,
    ct: &[f32],
    ld: usize,
    ids: &[u32],
    selectors: &mut [TopKSelector],
    sink: &mut S,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: both features were just verified on this CPU.
        return unsafe { scan_panel_avx2(ps, d, nq, ct, ld, ids, selectors, sink) };
    }
    scan_panel(ps, d, nq, ct, ld, ids, selectors, sink)
}

/// Bounded top-k selection over a score slice: keep the best `k` in a
/// min-heap-of-worst, then unwind into descending order (ascending index
/// on ties).
pub fn top_k_of_scores(scores: &[f32], k: usize) -> Vec<(u32, f32)> {
    let mut sel = TopKSelector::new(k.min(scores.len()));
    for (j, &s) in scores.iter().enumerate() {
        sel.push(j as u32, s);
    }
    sel.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn brute_top_k(scores: &[(u32, f32)], k: usize) -> Vec<(u32, f32)> {
        let mut v = scores.to_vec();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    #[test]
    fn selector_matches_sort_on_random_streams_in_any_order() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..20 {
            let n = rng.gen_range(1usize..200);
            let mut items: Vec<(u32, f32)> = (0..n as u32)
                // Coarse quantization forces plenty of exact score ties.
                .map(|i| (i, (rng.gen_range(0..8) as f32) / 8.0))
                .collect();
            let expect_full = brute_top_k(&items, n);
            // Push in a permuted order: tie-handling must not depend on
            // candidates arriving id-ascending.
            use rand::seq::SliceRandom;
            items.shuffle(&mut rng);
            for k in [0usize, 1, 3, n / 2, n, n + 5] {
                let mut sel = TopKSelector::new(k);
                for &(id, s) in &items {
                    sel.push(id, s);
                }
                assert_eq!(sel.into_sorted(), expect_full[..k.min(n)].to_vec(), "k={k}");
            }
        }
    }

    #[test]
    fn selector_k_zero_retains_nothing() {
        let mut sel = TopKSelector::new(0);
        sel.push(0, 1.0);
        sel.push(1, f32::INFINITY);
        assert!(sel.is_empty());
        assert!(sel.into_sorted().is_empty());
    }

    #[test]
    fn late_lower_id_wins_exact_ties() {
        // id 7 arrives first with the same score as id 2; the lower id
        // must still end up retained.
        let mut sel = TopKSelector::new(1);
        sel.push(7, 0.5);
        sel.push(2, 0.5);
        assert_eq!(sel.into_sorted(), vec![(2, 0.5)]);
    }

    #[test]
    fn scan_block_remaps_ids_and_matches_dots() {
        let mut rng = StdRng::seed_from_u64(11);
        let (d, n, nq) = (12usize, 37usize, 6usize);
        let panel: Vec<f32> = (0..nq * d).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let cols: Vec<f32> = (0..n * d).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        // Transpose the column-major candidate set into d rows of n.
        let mut ct = vec![0.0f32; d * n];
        for j in 0..n {
            for l in 0..d {
                ct[l * n + j] = cols[j * d + l];
            }
        }
        let ids: Vec<u32> = (0..n as u32).map(|j| j * 3 + 100).collect();
        let mut selectors: Vec<TopKSelector> = (0..nq).map(|_| TopKSelector::new(5)).collect();
        scan_block(&panel, d, nq, &ct, n, &ids, &mut selectors);
        for (qi, sel) in selectors.into_iter().enumerate() {
            let q = &panel[qi * d..(qi + 1) * d];
            let scored: Vec<(u32, f32)> = (0..n)
                .map(|j| {
                    let dot: f32 = q
                        .iter()
                        .zip(&cols[j * d..(j + 1) * d])
                        .map(|(a, b)| a * b)
                        .sum();
                    (ids[j], dot)
                })
                .collect();
            let expect = brute_top_k(&scored, 5);
            let got = sel.into_sorted();
            assert_eq!(got.len(), expect.len());
            for ((gi, gs), (ei, es)) in got.iter().zip(&expect) {
                assert_eq!(gi, ei, "query {qi}");
                assert!((gs - es).abs() < 1e-5);
            }
        }
    }

    /// Scanning columns `base..base + len` of a wider slab in place (row
    /// stride `ld`) scores and selects exactly what a scan over a copy of
    /// those columns does, bit for bit: ranges off a 16-column tile and
    /// shorter than one, through the 4-query tile and the query tail.
    #[test]
    fn strided_scan_equals_a_copied_sub_slab_bitwise() {
        let mut rng = StdRng::seed_from_u64(23);
        let (d, ld) = (7usize, 61usize);
        let ct: Vec<f32> = (0..d * ld).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        for (base, len) in [
            (0usize, 61usize),
            (3, 40),
            (17, 16),
            (5, 9),
            (33, 1),
            (60, 1),
            (20, 0),
        ] {
            let mut sub = vec![0.0f32; d * len];
            for l in 0..d {
                sub[l * len..(l + 1) * len]
                    .copy_from_slice(&ct[l * ld + base..l * ld + base + len]);
            }
            let ids: Vec<u32> = (base as u32..(base + len) as u32).collect();
            for nq in 1..=9usize {
                let panel: Vec<f32> = (0..nq * d).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                let scan = |slab: &[f32], stride: usize| {
                    let mut sel: Vec<TopKSelector> =
                        (0..nq).map(|_| TopKSelector::new(len)).collect();
                    scan_block(&panel, d, nq, slab, stride, &ids, &mut sel);
                    sel.into_iter()
                        .map(TopKSelector::into_sorted)
                        .collect::<Vec<_>>()
                };
                let (strided, copied) = (scan(&ct[base..], ld), scan(&sub, len));
                for (s, c) in strided.iter().zip(&copied) {
                    let bits = |r: &[(u32, f32)]| {
                        r.iter().map(|&(i, v)| (i, v.to_bits())).collect::<Vec<_>>()
                    };
                    assert_eq!(bits(s), bits(c), "base={base} len={len} nq={nq}");
                }
            }
        }
    }

    /// Every score the kernel offers a sink, by id, in arrival order.
    #[derive(Default)]
    struct Record(std::collections::BTreeMap<u32, Vec<u32>>);

    impl ScoreSink for Record {
        fn observe(&mut self, id: u32, score: f32) {
            self.0.entry(id).or_default().push(score.to_bits());
        }
    }

    type Lists = Vec<Vec<(u32, u32)>>;

    fn bits(selectors: Vec<TopKSelector>) -> Lists {
        selectors
            .into_iter()
            .map(|s| {
                s.into_sorted()
                    .into_iter()
                    .map(|(i, v)| (i, v.to_bits()))
                    .collect()
            })
            .collect()
    }

    /// The kernel's contract one score at a time: accumulate from `0.0`
    /// in `l` order with a separate multiply and add, then push and
    /// observe in column order, query by query. Returns the selections
    /// at each of `ks` and what a sink observed.
    fn reference_scan(
        ps: &[f32],
        d: usize,
        nq: usize,
        ct: &[f32],
        ld: usize,
        ids: &[u32],
        ks: &[usize],
    ) -> (Vec<Lists>, Record) {
        let mut record = Record::default();
        let mut selectors: Vec<Vec<TopKSelector>> = ks
            .iter()
            .map(|&k| (0..nq).map(|_| TopKSelector::new(k)).collect())
            .collect();
        for qi in 0..nq {
            for (j, &id) in ids.iter().enumerate() {
                let mut s = 0.0f32;
                for l in 0..d {
                    s += ps[qi * d + l] * ct[l * ld + j];
                }
                for sel in &mut selectors {
                    sel[qi].push(id, s);
                }
                record.observe(id, s);
            }
        }
        (selectors.into_iter().map(bits).collect(), record)
    }

    /// A panel and a strided slab (`ld = n + 5`, read from column 2) of
    /// one of five shapes: random; coarse multiples of ¼ with many exact
    /// ties; one column repeated (every score of a query equal); zero
    /// query rows and zero columns; all-negative scores.
    fn scan_case(
        rng: &mut StdRng,
        shape: usize,
        d: usize,
        nq: usize,
        n: usize,
    ) -> (Vec<f32>, Vec<f32>, usize) {
        let ld = n + 5;
        let draw = |rng: &mut StdRng| match shape {
            1 => rng.gen_range(-4i32..5) as f32 / 4.0,
            4 => rng.gen_range(0.05f32..1.0),
            _ => rng.gen_range(-1.0f32..1.0),
        };
        let mut ps: Vec<f32> = (0..nq * d).map(|_| draw(rng)).collect();
        let mut ct: Vec<f32> = (0..d * ld).map(|_| draw(rng)).collect();
        match shape {
            2 => {
                for l in 0..d {
                    let v = ct[l * ld + 2];
                    ct[l * ld..(l + 1) * ld].fill(v);
                }
            }
            3 => {
                for qi in (0..nq).step_by(2) {
                    ps[qi * d..(qi + 1) * d].fill(0.0);
                }
                for l in 0..d {
                    for j in (2..ld).step_by(3) {
                        ct[l * ld + j] = 0.0;
                    }
                }
            }
            4 => ct.iter_mut().for_each(|v| *v = -*v),
            _ => {}
        }
        (ps, ct, ld)
    }

    /// The tiled, blocked, threshold-skipping kernel selects and observes
    /// bitwise what the one-score-at-a-time reference does: every query
    /// count through the 4-query tiles and each tail, column counts around
    /// every tile width and the column block, permuted ids (a late lower
    /// id must evict an equal score), and `k` from 0 past `n` — every `k`
    /// below a block, one per query count across blocks.
    #[test]
    fn scan_kernel_matches_the_scalar_reference_bitwise() {
        let mut rng = StdRng::seed_from_u64(41);
        let d = 12;
        let block = block_cols(d);
        let ns = [
            0,
            1,
            15,
            16,
            17,
            63,
            64,
            65,
            block - 1,
            block + 1,
            3 * block + 7,
        ];
        for (ni, &n) in ns.iter().enumerate() {
            // Ids in reverse with a stride, as an inverted list holds them:
            // later columns carry lower ids.
            let ids: Vec<u32> = (0..n as u32).rev().map(|j| j * 3 + 1).collect();
            for nq in 1..=9usize {
                let shape = (ni + nq) % 5;
                let (ps, ct, ld) = scan_case(&mut rng, shape, d, nq, n);
                let slab = &ct[2..];
                let all = [0, 1, 2, 10, n, n + 5];
                let ks = if n < block {
                    &all[..]
                } else {
                    &all[nq % 6..nq % 6 + 1]
                };
                let (want, want_record) = reference_scan(&ps, d, nq, slab, ld, &ids, ks);
                for (ki, (&k, want)) in ks.iter().zip(want).enumerate() {
                    let mut sel: Vec<TopKSelector> =
                        (0..nq).map(|_| TopKSelector::new(k)).collect();
                    let case = format!("n={n} nq={nq} shape={shape} k={k}");
                    if ki == 0 {
                        let mut record = Record::default();
                        scan_block_observed(&ps, d, nq, slab, ld, &ids, &mut sel, &mut record);
                        assert_eq!(record.0, want_record.0, "{case}: sink");
                    } else {
                        scan_block(&ps, d, nq, slab, ld, &ids, &mut sel);
                    }
                    assert_eq!(bits(sel), want, "{case}");
                }
            }
        }
    }

    /// The portable compilation of the kernel and the AVX2 one it
    /// dispatches to on capable hosts agree bitwise (on a host without
    /// AVX2 both sides run the portable code).
    #[test]
    fn scan_portable_and_dispatched_kernels_agree_bitwise() {
        let mut rng = StdRng::seed_from_u64(43);
        for (d, n) in [(32usize, 200usize), (7, 1000), (32, 3 * block_cols(32) + 7)] {
            let ids: Vec<u32> = (0..n as u32).collect();
            for nq in 1..=9usize {
                for shape in [nq % 5, (nq + 2) % 5] {
                    let (ps, ct, ld) = scan_case(&mut rng, shape, d, nq, n);
                    let run = |portable: bool| {
                        let mut sel: Vec<TopKSelector> =
                            (0..nq).map(|_| TopKSelector::new(10)).collect();
                        let mut record = Record::default();
                        if portable {
                            scan_panel(&ps, d, nq, &ct[2..], ld, &ids, &mut sel, &mut record);
                        } else {
                            scan_block_observed(
                                &ps,
                                d,
                                nq,
                                &ct[2..],
                                ld,
                                &ids,
                                &mut sel,
                                &mut record,
                            );
                        }
                        (bits(sel), record.0)
                    };
                    assert_eq!(run(true), run(false), "d={d} n={n} nq={nq} shape={shape}");
                }
            }
        }
    }

    #[test]
    fn top_k_of_scores_orders_and_bounds() {
        let scores = [0.5f32, 0.9, 0.9, 0.1];
        assert_eq!(top_k_of_scores(&scores, 2), vec![(1, 0.9), (2, 0.9)]);
        assert_eq!(top_k_of_scores(&scores, 10).len(), 4);
        assert!(top_k_of_scores(&scores, 0).is_empty());
    }

    #[test]
    fn normalize_keeps_cosine_convention() {
        let mut t = Tensor::from_rows(&[&[3.0, 4.0], &[0.0, 0.0], &[1e-5, 0.0], &[f32::NAN, 1.0]]);
        normalize_rows_cosine(&mut t);
        assert!((t.get(0, 0) - 0.6).abs() < 1e-6);
        assert!((t.get(0, 1) - 0.8).abs() < 1e-6);
        for r in 1..4 {
            assert_eq!(t.row(r), &[0.0, 0.0], "row {r} must zero out");
        }
    }
}
