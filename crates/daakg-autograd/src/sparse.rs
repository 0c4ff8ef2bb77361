//! Sparse row-gradients for embedding tables.
//!
//! A mini-batch touches only the sampled rows of an embedding table, so the
//! backward pass of a gather need not materialize a gradient the size of the
//! whole table. [`SparseGrad`] stores exactly the touched rows as a
//! `{row index → gradient row}` map; the training stack accumulates, merges
//! (across parallel batch shards) and hands these to
//! [`Optimizer::step_sparse`](crate::optim::Optimizer::step_sparse) without
//! ever allocating a dense table-shaped tensor.

use crate::tensor::Tensor;
use std::collections::HashMap;

/// Row id → slot lookup. When the row universe is known
/// ([`SparseGrad::with_rows`]) a direct-index table avoids per-row hashing
/// on the training hot path; the hash map handles unbounded universes.
#[derive(Debug, Clone)]
enum Slots {
    Map(HashMap<u32, u32>),
    /// `u32::MAX` marks an untouched row.
    Direct(Vec<u32>),
}

impl Slots {
    fn get(&self, id: u32) -> Option<u32> {
        match self {
            Slots::Map(m) => m.get(&id).copied(),
            Slots::Direct(v) => match v.get(id as usize) {
                Some(&s) if s != u32::MAX => Some(s),
                _ => None,
            },
        }
    }
}

/// A sparse gradient over the rows of a `rows × cols` parameter: only the
/// touched rows are stored. Repeated contributions to the same row
/// accumulate (the scatter-add semantics of a gather backward).
#[derive(Debug, Clone)]
pub struct SparseGrad {
    cols: usize,
    /// Touched row ids, in first-touch order (one per slot).
    ids: Vec<u32>,
    /// Slot-major flat storage, `ids.len() × cols`.
    data: Vec<f32>,
    /// Row id → slot index.
    slot: Slots,
}

impl Default for SparseGrad {
    fn default() -> Self {
        Self::new(0)
    }
}

impl SparseGrad {
    /// An empty gradient over rows of width `cols`, for an unbounded row
    /// universe (hash-map lookup).
    pub fn new(cols: usize) -> Self {
        Self {
            cols,
            ids: Vec::new(),
            data: Vec::new(),
            slot: Slots::Map(HashMap::new()),
        }
    }

    /// An empty gradient over a **known** `num_rows × cols` parameter:
    /// row lookup is a direct index (no hashing), which is what the
    /// per-batch gather backward uses.
    pub fn with_rows(cols: usize, num_rows: usize) -> Self {
        Self {
            cols,
            ids: Vec::new(),
            data: Vec::new(),
            slot: Slots::Direct(vec![u32::MAX; num_rows]),
        }
    }

    /// Forget every touched row but keep the allocations, so per-batch
    /// kernels reuse one gradient instead of rebuilding the row table.
    pub fn clear(&mut self) {
        match &mut self.slot {
            Slots::Map(m) => m.clear(),
            Slots::Direct(v) => self.ids.iter().for_each(|&id| v[id as usize] = u32::MAX),
        }
        self.ids.clear();
        self.data.clear();
    }

    /// Row width.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of distinct touched rows.
    pub fn nnz_rows(&self) -> usize {
        self.ids.len()
    }

    /// True when no row has been touched.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The touched row ids, in first-touch order.
    pub fn touched_ids(&self) -> &[u32] {
        &self.ids
    }

    /// The slot for row `id`, allocating a fresh zero row if untouched.
    #[inline]
    fn slot_for(&mut self, id: u32) -> usize {
        let next = self.ids.len() as u32;
        let slot = match &mut self.slot {
            Slots::Map(m) => *m.entry(id).or_insert(next),
            Slots::Direct(v) => {
                let cell = &mut v[id as usize];
                if *cell == u32::MAX {
                    *cell = next;
                }
                *cell
            }
        };
        if slot == next {
            self.ids.push(id);
            self.data.resize(self.data.len() + self.cols, 0.0);
        }
        slot as usize
    }

    /// Accumulate `values` into row `id` (scatter-add).
    pub fn add_row(&mut self, id: u32, values: &[f32]) {
        assert_eq!(values.len(), self.cols, "sparse grad row width mismatch");
        let slot = self.slot_for(id);
        let dst = &mut self.data[slot * self.cols..(slot + 1) * self.cols];
        for (d, v) in dst.iter_mut().zip(values) {
            *d += v;
        }
    }

    /// Accumulate `scale · values` into row `id` (scatter-add with a
    /// coefficient — the fused scoring backward).
    pub fn add_row_scaled(&mut self, id: u32, values: &[f32], scale: f32) {
        assert_eq!(values.len(), self.cols, "sparse grad row width mismatch");
        let slot = self.slot_for(id);
        let dst = &mut self.data[slot * self.cols..(slot + 1) * self.cols];
        for (d, v) in dst.iter_mut().zip(values) {
            *d += scale * v;
        }
    }

    /// Accumulate every row of the dense `m × cols` tensor `g` into the row
    /// given by the matching entry of `indices` — the backward pass of
    /// `output[i] = table[indices[i]]`.
    pub fn add_gathered(&mut self, indices: &[u32], g: &Tensor) {
        assert_eq!(indices.len(), g.rows(), "one index per gradient row");
        for (i, &id) in indices.iter().enumerate() {
            self.add_row(id, g.row(i));
        }
    }

    /// Merge another sparse gradient into this one (row-wise sum). Used to
    /// combine the gradients of parallel batch shards.
    pub fn merge(&mut self, other: &SparseGrad) {
        assert_eq!(self.cols, other.cols, "sparse grad width mismatch");
        for (id, row) in other.iter() {
            self.add_row(id, row);
        }
    }

    /// Iterate over `(row id, gradient row)` pairs in first-touch order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[f32])> {
        self.ids
            .iter()
            .zip(self.data.chunks_exact(self.cols.max(1)))
            .map(|(&id, row)| (id, row))
    }

    /// The gradient row for `id`, if touched.
    pub fn row(&self, id: u32) -> Option<&[f32]> {
        self.slot
            .get(id)
            .map(|s| &self.data[s as usize * self.cols..(s as usize + 1) * self.cols])
    }

    /// Materialize as a dense `rows × cols` tensor (untouched rows zero).
    pub fn to_dense(&self, rows: usize) -> Tensor {
        let mut out = Tensor::zeros(rows, self.cols);
        self.add_into_dense(&mut out);
        out
    }

    /// Scatter-add into an existing dense tensor of matching width.
    pub fn add_into_dense(&self, dense: &mut Tensor) {
        assert_eq!(dense.cols(), self.cols, "dense width mismatch");
        for (id, row) in self.iter() {
            let dst = dense.row_mut(id as usize);
            for (d, v) in dst.iter_mut().zip(row) {
                *d += v;
            }
        }
    }

    /// Build from a dense gradient, keeping only rows with a non-zero entry.
    pub fn from_dense(dense: &Tensor) -> Self {
        let mut out = Self::new(dense.cols());
        for r in 0..dense.rows() {
            let row = dense.row(r);
            if row.iter().any(|v| *v != 0.0) {
                out.add_row(r as u32, row);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_row_accumulates_repeated_ids() {
        let mut g = SparseGrad::new(2);
        g.add_row(3, &[1.0, 2.0]);
        g.add_row(3, &[0.5, -1.0]);
        g.add_row(1, &[4.0, 4.0]);
        assert_eq!(g.nnz_rows(), 2);
        assert_eq!(g.row(3), Some(&[1.5, 1.0][..]));
        assert_eq!(g.row(1), Some(&[4.0, 4.0][..]));
        assert_eq!(g.row(0), None);
    }

    #[test]
    fn gathered_matches_dense_scatter() {
        let g = Tensor::from_rows(&[&[1.0, 0.0], &[2.0, 2.0], &[3.0, 1.0]]);
        let mut sg = SparseGrad::new(2);
        sg.add_gathered(&[1, 1, 4], &g);
        let dense = sg.to_dense(5);
        assert_eq!(dense.row(0), &[0.0, 0.0]);
        assert_eq!(dense.row(1), &[3.0, 2.0]);
        assert_eq!(dense.row(4), &[3.0, 1.0]);
    }

    #[test]
    fn merge_sums_shards() {
        let mut a = SparseGrad::new(1);
        a.add_row(0, &[1.0]);
        a.add_row(2, &[2.0]);
        let mut b = SparseGrad::new(1);
        b.add_row(2, &[3.0]);
        b.add_row(5, &[5.0]);
        a.merge(&b);
        assert_eq!(a.to_dense(6).as_slice(), &[1.0, 0.0, 5.0, 0.0, 0.0, 5.0]);
    }

    #[test]
    fn cleared_grad_equals_a_fresh_one() {
        for mut g in [SparseGrad::new(2), SparseGrad::with_rows(2, 4)] {
            g.add_row(3, &[1.0, 2.0]);
            g.add_row(1, &[4.0, 4.0]);
            g.clear();
            assert!(g.is_empty());
            assert_eq!(g.row(3), None);
            g.add_row(1, &[0.5, 0.5]);
            assert_eq!(g.touched_ids(), &[1]);
            assert_eq!(
                g.to_dense(4).as_slice(),
                &[0.0, 0.0, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0]
            );
        }
    }

    #[test]
    fn from_dense_round_trips() {
        let d = Tensor::from_rows(&[&[0.0, 0.0], &[1.0, -1.0], &[0.0, 2.0]]);
        let sg = SparseGrad::from_dense(&d);
        assert_eq!(sg.nnz_rows(), 2);
        assert_eq!(sg.to_dense(3), d);
    }
}
