//! The shared candidate-scan kernel: bounded top-k selection fed by a
//! 4-query × 16-candidate register-tiled dot-product sweep.
//!
//! This module hosts the machinery that both similarity engines run on:
//!
//! * [`TopKSelector`] — a bounded binary min-heap-of-worst accumulator
//!   with a cached rejection threshold, keeping the best `k` candidates
//!   under the canonical *(score descending, id ascending)* order;
//! * [`scan_block`] — the blocked scan: a gathered query panel against a
//!   *transposed* candidate block, accumulating a 4×16 register tile
//!   vertically (no horizontal reductions), with an AVX2+FMA
//!   re-compilation selected by runtime dispatch on x86-64;
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

/// Candidates per register tile of the scan kernel: 4 queries × 16
/// candidates = 64 accumulators, two 8-lane vectors per query on AVX2.
const SCAN_TILE: usize = 16;

/// A second consumer of the scan kernel's scores, fed beside the
/// per-query selectors: every `(candidate id, score)` the kernel computes
/// is offered to it as well. `()` observes nothing — the plain top-k scan,
/// which compiles to the same loop as before the sink existed.
pub trait ScoreSink {
    /// Observe one computed score of candidate `id`.
    fn observe(&mut self, id: u32, score: f32);
}

impl ScoreSink for () {
    #[inline(always)]
    fn observe(&mut self, _id: u32, _score: f32) {}
}

/// Scan every candidate column of a transposed block against a gathered
/// query panel (`nq` rows of `d` floats in `ps`), feeding the per-query
/// bounded selectors and the score sink.
///
/// `ct` is the *transposed* candidate block (`d` rows of `n` floats, `ld`
/// apart), so the kernel accumulates a 4-query × 16-candidate register tile
/// *vertically*: per depth step it loads one 16-wide candidate slab,
/// broadcasts four query scalars, and issues eight 8-lane FMAs — no
/// horizontal reduction anywhere, and each candidate load feeds four MACs.
///
/// `ids[j]` is the id pushed for column `j` (`n = ids.len()`): the
/// identity map for an exhaustive scan, the inverted-list id slice for an
/// IVF probe.
///
/// `#[inline(always)]` so the `#[target_feature]` wrapper below inlines
/// this body and re-vectorizes it with the wider instruction set.
// Index-based tile loops are deliberate: the accumulator tile must be
// addressed by lane for the vectorizer to keep it in registers.
#[allow(clippy::needless_range_loop, clippy::too_many_arguments)]
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
    let mut qi = 0;
    while qi + 4 <= nq {
        let b = qi * d;
        let q0 = &ps[b..b + d];
        let q1 = &ps[b + d..b + 2 * d];
        let q2 = &ps[b + 2 * d..b + 3 * d];
        let q3 = &ps[b + 3 * d..b + 4 * d];
        let [s0, s1, s2, s3] = {
            let (h0, rest) = selectors[qi..].split_at_mut(1);
            let (h1, rest) = rest.split_at_mut(1);
            let (h2, h3) = rest.split_at_mut(1);
            [&mut h0[0], &mut h1[0], &mut h2[0], &mut h3[0]]
        };
        let mut j0 = 0;
        while j0 + SCAN_TILE <= n {
            let mut acc = [[0.0f32; SCAN_TILE]; 4];
            for l in 0..d {
                let slab = &ct[l * ld + j0..l * ld + j0 + SCAN_TILE];
                let (b0, b1, b2, b3) = (q0[l], q1[l], q2[l], q3[l]);
                for t in 0..SCAN_TILE {
                    let cv = slab[t];
                    acc[0][t] += b0 * cv;
                    acc[1][t] += b1 * cv;
                    acc[2][t] += b2 * cv;
                    acc[3][t] += b3 * cv;
                }
            }
            for t in 0..SCAN_TILE {
                let j = ids[j0 + t];
                s0.push(j, acc[0][t]);
                s1.push(j, acc[1][t]);
                s2.push(j, acc[2][t]);
                s3.push(j, acc[3][t]);
                for a in &acc {
                    sink.observe(j, a[t]);
                }
            }
            j0 += SCAN_TILE;
        }
        // Candidate tail (< SCAN_TILE columns): strided scalar access.
        while j0 < n {
            let mut s = [0.0f32; 4];
            for l in 0..d {
                let cv = ct[l * ld + j0];
                s[0] += q0[l] * cv;
                s[1] += q1[l] * cv;
                s[2] += q2[l] * cv;
                s[3] += q3[l] * cv;
            }
            let j = ids[j0];
            s0.push(j, s[0]);
            s1.push(j, s[1]);
            s2.push(j, s[2]);
            s3.push(j, s[3]);
            for &v in &s {
                sink.observe(j, v);
            }
            j0 += 1;
        }
        qi += 4;
    }
    // Query tail (< 4 rows): one vertical axpy sweep per query.
    while qi < nq {
        let q = &ps[qi * d..(qi + 1) * d];
        let mut buf = vec![0.0f32; n];
        for (l, &bq) in q.iter().enumerate() {
            for (o, &cv) in buf.iter_mut().zip(&ct[l * ld..l * ld + n]) {
                *o += bq * cv;
            }
        }
        let sel = &mut selectors[qi];
        for (j, &s) in buf.iter().enumerate() {
            sel.push(ids[j], s);
            sink.observe(ids[j], s);
        }
        qi += 1;
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
