//! The closed-form TransE `O_er` mini-batch step (Eq. 1): the sparse tape
//! path's values and gradients, written straight into reused
//! [`SparseGrad`] row maps with no tape and no per-batch allocation. It
//! runs the tape's float operations in the tape's order, so it trains the
//! tape oracle's bits: the same shards, merged in shard order; scatters in
//! reverse tape order; a positive summing its `k` slots in order; no
//! gradient through a norm at most [`NORM_EPS`].

use crate::sampling::{NegativeSampler, TripleArrays};
use crate::{EmbedConfig, TableParams};
use daakg_autograd::{Adam, Optimizer, ParamStore, SparseGrad, Tensor};
use rand::rngs::StdRng;
use std::ops::Range;

/// The norm at or below which the tape's row-norm backward skips a row.
const NORM_EPS: f32 = 1e-12;

/// One shard's reused buffers. Its scores are the shard's positives, then
/// their `k` negative slots each.
#[derive(Default)]
struct Shard {
    ent: SparseGrad,
    rel: SparseGrad,
    /// Per score: `(h, r, t)`, `h + r − t` (`dim` floats), its norm, and
    /// the loss gradient with respect to that norm.
    triples: Vec<[u32; 3]>,
    diff: Vec<f32>,
    norm: Vec<f32>,
    grad: Vec<f32>,
    loss: f32,
}

/// The closed-form TransE `O_er` step and its scratch, reused across the
/// batches of one training run.
pub(crate) struct ErKernel {
    tables: TableParams,
    cfg: EmbedConfig,
    shards: Vec<Shard>,
    neg_tails: Vec<u32>,
}

impl ErKernel {
    pub(crate) fn new(tables: TableParams, store: &ParamStore, cfg: &EmbedConfig) -> Self {
        let (ent, rel) = (store.get(&tables.ent), store.get(&tables.rel));
        let shards = (0..cfg.effective_threads())
            .map(|_| Shard {
                ent: SparseGrad::with_rows(ent.cols(), ent.rows()),
                rel: SparseGrad::with_rows(rel.cols(), rel.rows()),
                ..Shard::default()
            })
            .collect();
        Self {
            tables,
            cfg: *cfg,
            shards,
            neg_tails: Vec::new(),
        }
    }

    /// One mini-batch: sample the negative tails, bring the rows the batch
    /// reads current, compute the loss and gradients shard by shard, and
    /// take one lazy Adam step per table. Returns the batch loss.
    pub(crate) fn step(
        &mut self,
        batch: &TripleArrays,
        sampler: &NegativeSampler,
        store: &mut ParamStore,
        opt: &mut Adam,
        rng: &mut StdRng,
    ) -> f32 {
        let (k, margin) = (self.cfg.neg_samples, self.cfg.margin_er);
        sampler.sample_tails(rng, batch, k, &mut self.neg_tails);
        let tp = &self.tables;
        opt.refresh_rows(store, &tp.ent, &batch.heads);
        opt.refresh_rows(store, &tp.ent, &batch.tails);
        opt.refresh_rows(store, &tp.ent, &self.neg_tails);
        opt.refresh_rows(store, &tp.rel, &batch.rels);

        let ranges = daakg_parallel::split_ranges(batch.len(), self.shards.len());
        let shards = &mut self.shards[..ranges.len()];
        let (ent, rel, tails) = (store.get(&tp.ent), store.get(&tp.rel), &self.neg_tails);
        daakg_parallel::par_chunks_mut(shards, |first, group| {
            for (shard, r) in group.iter_mut().zip(&ranges[first..]) {
                shard.run(ent, rel, batch, tails, r.clone(), k, margin);
            }
        });

        let (merged, rest) = shards.split_first_mut().expect("a batch has a shard");
        let mut loss = 0.0;
        loss += merged.loss;
        for shard in rest {
            loss += shard.loss;
            merged.ent.merge(&shard.ent);
            merged.rel.merge(&shard.rel);
            shard.ent.clear();
            shard.rel.clear();
        }
        opt.step_sparse(store, &tp.ent, &merged.ent);
        opt.step_sparse(store, &tp.rel, &merged.rel);
        merged.ent.clear();
        merged.rel.clear();
        loss
    }
}

/// Appends the L2 norm of every `dim`-wide row of `rows` to `out`, each
/// summing its squares in element order like the tape's row norm (squares
/// are never `-0.0`, so the sum's start cannot show). Eight rows run side
/// by side so their independent sums overlap.
fn row_norms(rows: &[f32], dim: usize, out: &mut Vec<f32>) {
    let mut groups = rows.chunks_exact(8 * dim);
    for group in &mut groups {
        let mut acc = [0.0f32; 8];
        for c in 0..dim {
            for (g, a) in acc.iter_mut().enumerate() {
                *a += group[g * dim + c] * group[g * dim + c];
            }
        }
        out.extend(acc.iter().map(|a| a.sqrt()));
    }
    for row in groups.remainder().chunks_exact(dim) {
        out.push(row.iter().map(|x| x * x).sum::<f32>().sqrt());
    }
}

impl Shard {
    /// Forward and backward of the shard's slice `r` of the batch.
    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        ent: &Tensor,
        rel: &Tensor,
        batch: &TripleArrays,
        neg_tails: &[u32],
        r: Range<usize>,
        k: usize,
        margin: f32,
    ) {
        let (dim, positives, slots) = (ent.cols(), r.len(), r.len() * k);
        self.triples.clear();
        for i in r.clone() {
            self.triples
                .push([batch.heads[i], batch.rels[i], batch.tails[i]]);
        }
        for (q, &t) in neg_tails[r.start * k..r.end * k].iter().enumerate() {
            let [h, rl, _] = self.triples[q / k];
            self.triples.push([h, rl, t]);
        }
        self.diff.resize(self.triples.len() * dim, 0.0);
        for (&[h, rl, t], out) in self.triples.iter().zip(self.diff.chunks_exact_mut(dim)) {
            let (h, rl, t) = (ent.row(h as _), rel.row(rl as _), ent.row(t as _));
            for (c, o) in out.iter_mut().enumerate() {
                *o = (h[c] + rl[c]) - t[c];
            }
        }
        self.norm.clear();
        row_norms(&self.diff, dim, &mut self.norm);

        // The hinge mean, scaled by the shard's share of the batch (a
        // single shard's `× 1.0`, which the tape leaves out, is exact);
        // then each score's gradient: an open hinge passes the mean's
        // gradient to its positive (summed over the positive's slots in
        // order) and its negation to its negative.
        // The sum starts where `Iterator::sum` does.
        let (pos, neg) = self.norm.split_at(positives);
        self.grad.clear();
        self.grad.resize(positives, 0.0);
        let mut hinge = -0.0f32;
        for (q, &n) in neg.iter().enumerate() {
            let diff = (pos[q / k] + margin) - n;
            hinge += diff.max(0.0);
            self.grad.push(diff);
        }
        let weight = positives as f32 / batch.len() as f32;
        self.loss = hinge / slots as f32 * weight;
        let per_slot = weight / slots as f32;
        for q in 0..slots {
            let open = self.grad[positives + q] > 0.0;
            let g = if open { per_slot } else { 0.0 };
            self.grad[q / k] += g;
            self.grad[positives + q] = -g;
        }

        // Each score's rows, in reverse tape order.
        for scores in [positives..positives + slots, 0..positives] {
            for term in 0..3 {
                for i in scores.clone() {
                    if self.norm[i] <= NORM_EPS {
                        continue;
                    }
                    let s = self.grad[i] / self.norm[i];
                    let ([h, rl, t], diff) = (self.triples[i], &self.diff[i * dim..(i + 1) * dim]);
                    match term {
                        0 => self.ent.add_row_scaled(t, diff, -s),
                        1 => self.rel.add_row_scaled(rl, diff, s),
                        _ => self.ent.add_row_scaled(h, diff, s),
                    }
                }
            }
        }
    }
}
