//! The alignment losses, in two forms.
//!
//! * [`softmax_pair_loss`] — the alignment losses `O_ea`, `O_ra`, `O_ca`
//!   (Eq. 5, 8 and the class analogue): for each labeled match and a
//!   sampled non-match, a 2-way softmax over their similarities, maximizing
//!   the match's probability. We use the cross-entropy form `−log p` (the
//!   monotone, numerically stable version of the paper's `−softmax(...)`).
//! * The focal variant (Sect. 4.2, fine-tuning): the softmax output is
//!   changed to `(1 − p)^γ`, so misclassified newly-labeled pairs dominate
//!   the gradient. We implement the standard focal cross-entropy
//!   `(1 − p)^γ · (−log p)`.
//! * [`semi_supervised_loss`] — `O_semi = −Σ S₀(x,x')·S(x,x')` (Eq. 10),
//!   with the previous-round similarity `S₀` as a constant soft label.
//!
//! Both are **tape-building** functions: the dense alignment step and the
//! class term `O_ca` use them directly. The sparse alignment step over
//! embedding tables uses their **closed forms** instead —
//! `pair_term` (the mapped-left × right cosines of Eq. 4 feeding
//! [`softmax_pair_loss`]) and `semi_term` (the same for
//! [`semi_supervised_loss`]) — which compute the loss and write the
//! gradients of the mapping matrix and of the touched table rows
//! directly, with no tape. The closed forms perform the tape's float
//! operations in the tape's order, so they train bit for bit what the
//! tape construction (kept as the test oracle in `joint`) trains:
//!
//! * softmax, log, focal power and mean run per slot exactly as the tape
//!   ops do, and the mean's upstream gradient is `1/slots`;
//! * a cosine's backward divides as [`Graph::cosine_rows`] does and passes
//!   no gradient when either norm is at most `1e-12`; a pair's positive
//!   cosine and its direction terms are computed once, since its `k`
//!   slots differ only in their upstream scalar;
//! * each pair's mapped-row gradient sums its slots in order, negative
//!   before positive per slot, then flows through the mapping matmul's
//!   backward kernels ([`Tensor::matmul_transpose`],
//!   [`Tensor::tr_matmul`]);
//! * right-table rows take the negatives' gradients, then the
//!   positives', slot by slot; left-table rows take one row per pair.
//!   Callers that add `semi_term` to the same tables run it first, as
//!   the tape's reverse walk does;
//! * a pair's cosines, softmax slots and direction terms depend on no
//!   other pair, so pairs are filled across the worker budget with one
//!   writer each; every sum across pairs (the loss mean, the table-row
//!   scatters) runs afterwards on one thread, in slot order.

use daakg_autograd::{Graph, SparseGrad, TapeSession, Tensor, Var};
use rand::rngs::StdRng;
use rand::Rng;

/// Logit scale applied before the 2-way softmax. Cosine similarities live in
/// `[−1, 1]`; the scale plays the role of the softmax temperature `1/Z` so
/// the loss is discriminative (Sect. 4.2 uses small temperatures).
pub const LOGIT_SCALE: f32 = 10.0;

/// 2-way softmax alignment loss over aligned positive / negative similarity
/// columns (`m×1` each). With `focal_gamma = Some(γ)` the focal weighting is
/// applied. Returns the mean loss (`1×1`).
pub fn softmax_pair_loss(
    g: &mut Graph,
    pos_sims: Var,
    neg_sims: Var,
    focal_gamma: Option<f32>,
) -> Var {
    let logits = g.concat_cols(pos_sims, neg_sims);
    let scaled = g.mul_scalar(logits, LOGIT_SCALE);
    let probs = g.softmax_rows(scaled);
    let p = g.slice_cols(probs, 0, 1);
    // Clamp-free stability: p > 0 by construction of softmax; add epsilon
    // through add_scalar to protect the log in degenerate f32 cases.
    let p_safe = g.add_scalar(p, 1e-12);
    let log_p = g.log(p_safe);
    let nll = g.neg(log_p);
    let weighted = match focal_gamma {
        Some(gamma) => {
            // (1 − p)^γ
            let neg_p = g.neg(p);
            let one_minus_p = g.add_scalar(neg_p, 1.0);
            let focal = g.pow_scalar(one_minus_p, gamma);
            g.mul(focal, nll)
        }
        None => nll,
    };
    g.mean_all(weighted)
}

/// The semi-supervised loss `O_semi(M_semi) = −Σ S₀·S` (Eq. 10).
///
/// `sims` are the current similarities of the mined pairs (`m×1`, on tape);
/// `soft_labels` are the previous-round similarities `S₀` treated as
/// constants (the optimizer does not update the model that produced them).
pub fn semi_supervised_loss(g: &mut Graph, sims: Var, soft_labels: &[f32]) -> Var {
    assert_eq!(
        g.value(sims).rows(),
        soft_labels.len(),
        "one soft label per similarity"
    );
    let soft = g.leaf(Tensor::from_vec(soft_labels.len(), 1, soft_labels.to_vec()));
    let prod = g.mul(soft, sims);
    let mean = g.mean_all(prod);
    g.neg(mean)
}

/// The norm at or below which a cosine's backward passes no gradient.
const NORM_EPS: f32 = 1e-12;

/// Presampled row indices for the softmax pair loss: each labeled pair
/// contributes `align_negatives` slots pairing the positive similarity
/// with a sampled-negative similarity. Sampling happens before anything
/// is computed, so every construction consumes the RNG identically.
pub(crate) struct PairRows {
    /// Left row per pair-negative slot (`left_once[p]`, repeated `k`
    /// times).
    lrows: Vec<u32>,
    /// Left row of each labeled pair, once.
    pub left_once: Vec<u32>,
    /// Right row of the match, and of a sampled non-match, per slot.
    pub pos_rrows: Vec<u32>,
    pub neg_rrows: Vec<u32>,
}

impl PairRows {
    pub(crate) fn sample(
        pairs: &[(u32, u32)],
        negatives: usize,
        num_right: u32,
        rng: &mut StdRng,
    ) -> Self {
        let k = negatives.max(1);
        let mut lrows = Vec::with_capacity(pairs.len() * k);
        let mut left_once = Vec::with_capacity(pairs.len());
        let mut pos_rrows = Vec::with_capacity(pairs.len() * k);
        let mut neg_rrows = Vec::with_capacity(pairs.len() * k);
        for &(l, r) in pairs {
            left_once.push(l);
            for _ in 0..k {
                lrows.push(l);
                pos_rrows.push(r);
                // Rejection-sample a right element different from the match.
                let mut neg = rng.gen_range(0..num_right);
                for _ in 0..8 {
                    if neg != r {
                        break;
                    }
                    neg = rng.gen_range(0..num_right);
                }
                neg_rrows.push(neg);
            }
        }
        Self {
            lrows,
            left_once,
            pos_rrows,
            neg_rrows,
        }
    }

    /// The dense-construction similarity columns: gather the presampled
    /// rows from the mapped left matrix and the right matrix on the tape.
    pub(crate) fn sims_on_tape(
        &self,
        s: &mut TapeSession,
        mapped_left: Var,
        right: Var,
    ) -> (Var, Var) {
        let l = s.graph.gather_rows(mapped_left, &self.lrows);
        let rp = s.graph.gather_rows(right, &self.pos_rrows);
        let rn = s.graph.gather_rows(right, &self.neg_rrows);
        let pos = s.graph.cosine_rows(l, rp);
        let l2 = s.graph.gather_rows(mapped_left, &self.lrows);
        let neg = s.graph.cosine_rows(l2, rn);
        (pos, neg)
    }

    /// The sparse tape construction of the similarity columns (the
    /// closed-form [`pair_term`]'s oracle): map each pair's left row
    /// through the mapping matrix once, expand to the pair×k slots via a
    /// tape gather, and cosine against externally gathered right rows.
    #[cfg(test)]
    pub(crate) fn sparse_sims(
        &self,
        s: &mut TapeSession,
        store: &daakg_autograd::ParamStore,
        left_table: &str,
        right_table: &str,
        a_map: Var,
    ) -> (Var, Var) {
        let k = self.pos_rrows.len() / self.left_once.len();
        let rep: Vec<u32> = (0..self.left_once.len() as u32)
            .flat_map(|p| std::iter::repeat_n(p, k))
            .collect();
        let l_raw = s.gather_param(store, left_table, &self.left_once);
        let mapped_once = s.graph.matmul(l_raw, a_map);
        let mapped = s.graph.gather_rows(mapped_once, &rep);
        let rp = s.gather_param(store, right_table, &self.pos_rrows);
        let rn = s.gather_param(store, right_table, &self.neg_rrows);
        let pos = s.graph.cosine_rows(mapped, rp);
        let neg = s.graph.cosine_rows(mapped, rn);
        (pos, neg)
    }
}

/// Right rows per lane group of [`CosineSums`].
const LANES: usize = 8;

/// The sums behind the cosines of one left row `x` against several right
/// rows `y_j`: `Σx²` and, per `y_j`, `Σy²` and `Σx·y`, the dot product
/// twice — from the `0.0` start of
/// [`cosine`](daakg_autograd::tensor::cosine) (the forward) and from the
/// `-0.0` start of [`Iterator::sum`] (the backward; the two differ only in
/// the sign of an all-zero dot product). A square is never `-0.0`, so one
/// `Σx²` and one `Σy²` serve both passes. Every sum runs in element order
/// exactly as the tape runs it; the right rows are transposed into
/// [`LANES`]-wide groups so that their independent sums run side by side.
#[derive(Default)]
struct CosineSums {
    xx: f32,
    yy: Vec<f32>,
    xy_fwd: Vec<f32>,
    xy_bwd: Vec<f32>,
    /// One lane group of right rows, element-major.
    lanes: Vec<f32>,
}

impl CosineSums {
    fn compute(&mut self, x: &[f32], right: &Tensor, rows: &[u32]) {
        let dim = x.len();
        self.xx = 0.0;
        for &xc in x {
            self.xx += xc * xc;
        }
        self.yy.clear();
        self.xy_fwd.clear();
        self.xy_bwd.clear();
        self.lanes.resize(dim * LANES, 0.0);
        for group in rows.chunks(LANES) {
            for (j, &row) in group.iter().enumerate() {
                for (c, &yc) in right.row(row as usize).iter().enumerate() {
                    self.lanes[c * LANES + j] = yc;
                }
            }
            let (mut fwd, mut bwd, mut yy) = ([0.0f32; LANES], [-0.0f32; LANES], [0.0f32; LANES]);
            for (&xc, ys) in x.iter().zip(self.lanes.chunks_exact(LANES)) {
                for j in 0..LANES {
                    let p = xc * ys[j];
                    fwd[j] += p;
                    bwd[j] += p;
                    yy[j] += ys[j] * ys[j];
                }
            }
            let n = group.len();
            self.xy_fwd.extend_from_slice(&fwd[..n]);
            self.xy_bwd.extend_from_slice(&bwd[..n]);
            self.yy.extend_from_slice(&yy[..n]);
        }
    }

    /// [`cosine`](daakg_autograd::tensor::cosine)`(x, y_j)`, from the sums.
    fn cosine(&self, j: usize) -> f32 {
        let (na, nb) = (self.xx, self.yy[j]);
        if !na.is_finite() || na <= f32::EPSILON || !nb.is_finite() || nb <= f32::EPSILON {
            return 0.0;
        }
        self.xy_fwd[j] / (na.sqrt() * nb.sqrt())
    }

    /// The cosine backward's direction terms for `(x, y_j)`: `da[c]` and
    /// `db[c]` such that `∂cos/∂x = da` and `∂cos/∂y = db`, with the
    /// divisions of [`Graph::cosine_rows`]. `false` (nothing written) when
    /// a norm is at most [`NORM_EPS`] and the tape passes no gradient.
    fn dirs(&self, j: usize, x: &[f32], y: &[f32], da: &mut [f32], db: &mut [f32]) -> bool {
        let (nx, ny) = (self.xx.sqrt(), self.yy[j].sqrt());
        if nx <= NORM_EPS || ny <= NORM_EPS {
            return false;
        }
        let (nxy, nxx, nyy) = (nx * ny, nx * nx, ny * ny);
        let cosv = self.xy_bwd[j] / nxy;
        for (((a, b), &xc), &yc) in da.iter_mut().zip(db.iter_mut()).zip(x).zip(y) {
            *a = yc / nxy - cosv * xc / nxx;
            *b = xc / nxy - cosv * yc / nyy;
        }
        true
    }
}

/// One pair's results in [`pair_term`]'s record buffer: the pair's
/// mapped-row gradient, the direction terms of its match and of each
/// non-match, then per slot the loss, the two similarity gradients and
/// whether the non-match's cosine passes gradient, and last whether the
/// match's does.
#[derive(Clone, Copy)]
struct PairRecord {
    dim: usize,
    k: usize,
}

impl PairRecord {
    fn len(self) -> usize {
        (2 + self.k) * self.dim + 4 * self.k + 1
    }
    fn grad(self) -> std::ops::Range<usize> {
        0..self.dim
    }
    fn pos_dir(self) -> std::ops::Range<usize> {
        self.dim..2 * self.dim
    }
    fn neg_dir(self, j: usize) -> std::ops::Range<usize> {
        let start = (2 + j) * self.dim;
        start..start + self.dim
    }
    /// `[loss, ∂/∂pos, ∂/∂neg, neg live]` of slot `j`.
    fn slot(self, j: usize) -> usize {
        (2 + self.k) * self.dim + 4 * j
    }
    fn pos_live(self) -> usize {
        self.len() - 1
    }
}

/// Reused buffers of [`pair_term`], kept across alignment steps.
#[derive(Default)]
pub(crate) struct PairScratch {
    records: Vec<f32>,
}

/// Slots below which [`pair_term`] fills its records on the calling
/// thread: under this the fork costs more than the work.
const PAR_MIN_SLOTS: usize = 512;

/// One slot of [`softmax_pair_loss`], forward and backward: the slot's
/// (optionally focal) loss and the gradients of its positive and negative
/// similarities, given the mean's upstream gradient `s`.
fn softmax_slot(pos: f32, neg: f32, focal_gamma: Option<f32>, s: f32) -> (f32, f32, f32) {
    let logits = [pos * LOGIT_SCALE, neg * LOGIT_SCALE];
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut e = [0.0f32; 2];
    let mut z = 0.0;
    for (v, &x) in e.iter_mut().zip(&logits) {
        *v = (x - max).exp();
        z += *v;
    }
    let y = [e[0] / z, e[1] / z];
    let p_safe = y[0] + 1e-12;
    let nll = -p_safe.ln();
    let (loss, g_p) = match focal_gamma {
        None => (nll, -s / p_safe),
        Some(gamma) => {
            let one_minus_p = -y[0] + 1.0;
            let focal = one_minus_p.powf(gamma);
            let g_one_minus_p = s * nll * gamma * one_minus_p.powf(gamma - 1.0);
            (focal * nll, -g_one_minus_p + -(s * focal) / p_safe)
        }
    };
    let g = [g_p, 0.0];
    let dot: f32 = y.iter().zip(&g).map(|(p, q)| p * q).sum();
    let g_pos = y[0] * (g[0] - dot) * LOGIT_SCALE;
    let g_neg = y[1] * (g[1] - dot) * LOGIT_SCALE;
    (loss, g_pos, g_neg)
}

/// The closed form of one softmax pair term (`O_ea` or `O_ra`, Eq. 5/8)
/// over embedding tables: left rows mapped through `a`, cosine against
/// the right rows, [`softmax_pair_loss`] over the slots. Adds the table
/// gradients into `left_grad` / `right_grad` and returns the loss and
/// `∂L/∂a`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pair_term(
    rows: &PairRows,
    left: &Tensor,
    right: &Tensor,
    a: &Tensor,
    focal_gamma: Option<f32>,
    left_grad: &mut SparseGrad,
    right_grad: &mut SparseGrad,
    sc: &mut PairScratch,
) -> (f32, Tensor) {
    let (pairs, m) = (rows.left_once.len(), rows.pos_rrows.len());
    let (k, dim) = (m / pairs, a.cols());
    let l_raw = left.gather_rows(&rows.left_once);
    let mapped = l_raw.matmul(a);
    let s = 1.0 / m as f32;

    // Per pair, independently: the cosines, the softmax slots and the
    // cosine backward's direction terms, summed into the pair's
    // mapped-row gradient slot by slot, non-match before match.
    let rec = PairRecord { dim, k };
    sc.records.resize(pairs * rec.len(), 0.0);
    let fill = |first: usize, band: &mut [f32]| {
        let mut sums = CosineSums::default();
        let mut ids = Vec::with_capacity(k + 1);
        let (mut neg_a, mut pos_a) = (vec![0.0f32; dim], vec![0.0f32; dim]);
        for (i, out) in band.chunks_exact_mut(rec.len()).enumerate() {
            let p = first + i;
            let x = mapped.row(p);
            ids.clear();
            ids.push(rows.pos_rrows[p * k]);
            ids.extend_from_slice(&rows.neg_rrows[p * k..(p + 1) * k]);
            sums.compute(x, right, &ids);
            let pos = sums.cosine(0);
            let y_pos = right.row(ids[0] as usize);
            let pos_live = sums.dirs(0, x, y_pos, &mut pos_a, &mut out[rec.pos_dir()]);
            out[rec.pos_live()] = f32::from(u8::from(pos_live));
            out[rec.grad()].fill(0.0);
            for j in 0..k {
                let (loss, g_pos, g_neg) = softmax_slot(pos, sums.cosine(j + 1), focal_gamma, s);
                let y_neg = right.row(ids[j + 1] as usize);
                let neg_live = sums.dirs(j + 1, x, y_neg, &mut neg_a, &mut out[rec.neg_dir(j)]);
                let at = rec.slot(j);
                out[at..at + 4].copy_from_slice(&[
                    loss,
                    g_pos,
                    g_neg,
                    f32::from(u8::from(neg_live)),
                ]);
                for ((gm, &na), &pa) in out[rec.grad()].iter_mut().zip(&neg_a).zip(&pos_a) {
                    let from_neg = if neg_live { g_neg * na } else { 0.0 };
                    let from_pos = if pos_live { g_pos * pa } else { 0.0 };
                    *gm += from_neg + from_pos;
                }
            }
        }
    };
    if m >= PAR_MIN_SLOTS {
        daakg_parallel::par_row_chunks_mut(&mut sc.records, rec.len(), fill);
    } else {
        fill(0, &mut sc.records);
    }

    // In slot order: the loss mean, then the right rows' gradients
    // (every non-match, then every match), then the left rows'.
    let records = sc.records.chunks_exact(rec.len());
    let slot = |out: &[f32], j: usize, field: usize| out[rec.slot(j) + field];
    let loss = records
        .clone()
        .flat_map(|out| (0..k).map(move |j| slot(out, j, 0)))
        .sum::<f32>()
        / m as f32;
    for (p, out) in records.clone().enumerate() {
        for j in 0..k {
            if slot(out, j, 3) != 0.0 {
                right_grad.add_row_scaled(
                    rows.neg_rrows[p * k + j],
                    &out[rec.neg_dir(j)],
                    slot(out, j, 2),
                );
            }
        }
    }
    for (p, out) in records.clone().enumerate() {
        if out[rec.pos_live()] != 0.0 {
            for j in 0..k {
                right_grad.add_row_scaled(
                    rows.pos_rrows[p * k + j],
                    &out[rec.pos_dir()],
                    slot(out, j, 1),
                );
            }
        }
    }
    let mut g_mapped = Tensor::zeros(pairs, dim);
    for (p, out) in records.enumerate() {
        g_mapped.row_mut(p).copy_from_slice(&out[rec.grad()]);
    }
    let g_left = g_mapped.matmul_transpose(a);
    for (p, &row) in rows.left_once.iter().enumerate() {
        left_grad.add_row(row, g_left.row(p));
    }
    (loss, l_raw.tr_matmul(&g_mapped))
}

/// The closed form of [`semi_supervised_loss`] over mined pairs
/// `(left[i], right[i])` with soft labels `soft[i]`, the left rows mapped
/// through `a`. Adds the table gradients into `left_grad` / `right_grad`
/// and returns the loss and `∂L/∂a`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn semi_term(
    left_rows: &[u32],
    right_rows: &[u32],
    soft: &[f32],
    left: &Tensor,
    right: &Tensor,
    a: &Tensor,
    left_grad: &mut SparseGrad,
    right_grad: &mut SparseGrad,
) -> (f32, Tensor) {
    let (n, dim) = (left_rows.len(), a.cols());
    let l_raw = left.gather_rows(left_rows);
    let mapped = l_raw.matmul(a);
    let mut sums = CosineSums::default();
    let mut prod = Vec::with_capacity(n);
    let mut live = Vec::with_capacity(n);
    let mut g_mapped = Tensor::zeros(n, dim);
    let mut right_dirs = vec![0.0f32; n * dim];
    for i in 0..n {
        let x = mapped.row(i);
        sums.compute(x, right, &right_rows[i..=i]);
        prod.push(soft[i] * sums.cosine(0));
        let y = right.row(right_rows[i] as usize);
        let dir = &mut right_dirs[i * dim..(i + 1) * dim];
        live.push(sums.dirs(0, x, y, g_mapped.row_mut(i), dir));
    }
    let loss = -(prod.iter().sum::<f32>() / n as f32);

    let s = -1.0 / n as f32;
    for i in 0..n {
        if live[i] {
            let g = s * soft[i];
            for v in g_mapped.row_mut(i) {
                *v *= g;
            }
            right_grad.add_row_scaled(right_rows[i], &right_dirs[i * dim..(i + 1) * dim], g);
        }
    }
    let g_left = g_mapped.matmul_transpose(a);
    for (i, &row) in left_rows.iter().enumerate() {
        left_grad.add_row(row, g_left.row(i));
    }
    (loss, l_raw.tr_matmul(&g_mapped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use daakg_autograd::Graph;

    fn loss_value(pos: &[f32], neg: &[f32], gamma: Option<f32>) -> f32 {
        let mut g = Graph::new();
        let p = g.leaf(Tensor::from_vec(pos.len(), 1, pos.to_vec()));
        let n = g.leaf(Tensor::from_vec(neg.len(), 1, neg.to_vec()));
        let l = softmax_pair_loss(&mut g, p, n, gamma);
        g.value(l).item()
    }

    #[test]
    fn confident_correct_pairs_have_low_loss() {
        let good = loss_value(&[0.95], &[0.0], None);
        let bad = loss_value(&[0.0], &[0.95], None);
        assert!(good < bad);
        assert!(good < 0.1, "good loss {good}");
        assert!(bad > 1.0, "bad loss {bad}");
    }

    #[test]
    fn focal_downweights_easy_examples() {
        // Easy example: loss shrinks a lot under focal weighting.
        let easy_plain = loss_value(&[0.9], &[0.0], None);
        let easy_focal = loss_value(&[0.9], &[0.0], Some(2.0));
        assert!(easy_focal < easy_plain * 0.5);
        // Hard example: focal keeps most of the loss.
        let hard_plain = loss_value(&[0.0], &[0.9], None);
        let hard_focal = loss_value(&[0.0], &[0.9], Some(2.0));
        assert!(hard_focal > hard_plain * 0.5);
    }

    #[test]
    fn loss_gradient_pushes_pos_up_neg_down() {
        let mut g = Graph::new();
        let p = g.leaf(Tensor::from_vec(1, 1, vec![0.3]));
        let n = g.leaf(Tensor::from_vec(1, 1, vec![0.4]));
        let l = softmax_pair_loss(&mut g, p, n, None);
        g.backward(l);
        assert!(g.grad(p).unwrap().item() < 0.0); // decrease loss by raising pos
        assert!(g.grad(n).unwrap().item() > 0.0);
    }

    #[test]
    fn semi_loss_rewards_agreeing_similarities() {
        let mut g = Graph::new();
        let sims = g.leaf(Tensor::from_vec(2, 1, vec![0.9, 0.8]));
        let l = semi_supervised_loss(&mut g, sims, &[0.95, 0.92]);
        let high_agreement = g.value(l).item();

        let mut g2 = Graph::new();
        let sims2 = g2.leaf(Tensor::from_vec(2, 1, vec![0.1, 0.0]));
        let l2 = semi_supervised_loss(&mut g2, sims2, &[0.95, 0.92]);
        let low_agreement = g2.value(l2).item();
        assert!(high_agreement < low_agreement);
    }

    #[test]
    fn semi_loss_gradient_raises_sims() {
        let mut g = Graph::new();
        let sims = g.leaf(Tensor::from_vec(1, 1, vec![0.5]));
        let l = semi_supervised_loss(&mut g, sims, &[0.9]);
        g.backward(l);
        // dL/dsim = −S0/m < 0: gradient descent raises the similarity.
        assert!(g.grad(sims).unwrap().item() < 0.0);
    }
}
