//! The reverse-mode tape.
//!
//! Every operation eagerly computes its forward value and records the op on
//! the tape; [`Graph::backward`] then walks the tape in reverse, accumulating
//! gradients into each node. Nodes are addressed by the copy-able [`Var`]
//! handle, which avoids self-referential lifetimes entirely (index-based
//! arena, a standard Rust graph pattern).

use crate::sparse::SparseGrad;
use crate::tensor::Tensor;

/// Handle to a node on a [`Graph`] tape.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Var(u32);

impl Var {
    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug)]
enum Op {
    Leaf,
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    AddScalar(Var),
    MulScalar(Var, f32),
    MatMul(Var, Var),
    Transpose(Var),
    Gather(Var, Vec<u32>),
    /// Gather from an *external* parameter (not a tape node): the table
    /// never enters the tape, and its gradient accumulates as a
    /// [`SparseGrad`] over the touched rows only.
    GatherExternal(u32, Vec<u32>),
    ScatterMean {
        src: Var,
        targets: Vec<u32>,
        counts: Vec<u32>,
    },
    SumAll(Var),
    MeanAll(Var),
    Relu(Var),
    Tanh(Var),
    Exp(Var),
    Log(Var),
    Neg(Var),
    PowScalar(Var, f32),
    Sin(Var),
    Cos(Var),
    SliceCols(Var, usize, usize),
    ConcatCols(Var, Var),
    AddRowVec(Var, Var),
    RowsL2Norm(Var),
    CosineRows(Var, Var),
    SoftmaxRows(Var),
}

struct Node {
    value: Tensor,
    grad: Option<Tensor>,
    op: Op,
}

/// An external parameter referenced by [`Graph::gather_external`]: the
/// table stays owned by the caller; the graph only tracks its name, width
/// and the sparse gradient accumulated during backward.
struct ExternalParam {
    name: String,
    cols: usize,
    rows: usize,
    grad: Option<SparseGrad>,
}

/// A dynamic computation graph (tape).
///
/// Graphs are cheap to create; the training loops build a fresh graph per
/// mini-batch, exactly like dynamic frameworks do.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
    externals: Vec<ExternalParam>,
}

const NORM_EPS: f32 = 1e-12;

impl Graph {
    /// An empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        let idx = self.nodes.len();
        assert!(idx <= u32::MAX as usize, "tape overflow");
        self.nodes.push(Node {
            value,
            grad: None,
            op,
        });
        Var(idx as u32)
    }

    /// Record an input / parameter node.
    pub fn leaf(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Leaf)
    }

    /// Re-create a handle to the `index`-th node on the tape.
    ///
    /// Useful when inspecting nodes created inside another function (e.g.
    /// asserting that all leaves of an encoder received gradients).
    pub fn var_at(&self, index: usize) -> Var {
        assert!(index < self.nodes.len(), "node index out of range");
        Var(index as u32)
    }

    /// The forward value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.index()].value
    }

    /// The accumulated gradient of a node, available after
    /// [`Graph::backward`]. `None` if the node did not participate.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.nodes[v.index()].grad.as_ref()
    }

    // ------------------------------------------------------------------
    // Elementwise binary ops
    // ------------------------------------------------------------------

    /// Elementwise `a + b`.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let (ta, tb) = (self.value(a), self.value(b));
        assert_eq!(ta.shape(), tb.shape(), "add shape mismatch");
        let mut out = ta.clone();
        out.add_assign(tb);
        self.push(out, Op::Add(a, b))
    }

    /// Elementwise `a - b`.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let (ta, tb) = (self.value(a), self.value(b));
        assert_eq!(ta.shape(), tb.shape(), "sub shape mismatch");
        let mut out = ta.clone();
        out.add_scaled(tb, -1.0);
        self.push(out, Op::Sub(a, b))
    }

    /// Elementwise (Hadamard) `a * b`.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let (ta, tb) = (self.value(a), self.value(b));
        assert_eq!(ta.shape(), tb.shape(), "mul shape mismatch");
        let data: Vec<f32> = ta
            .as_slice()
            .iter()
            .zip(tb.as_slice())
            .map(|(x, y)| x * y)
            .collect();
        let out = Tensor::from_vec(ta.rows(), ta.cols(), data);
        self.push(out, Op::Mul(a, b))
    }

    /// `a + s` for a scalar `s`.
    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let out = self.value(a).map(|x| x + s);
        self.push(out, Op::AddScalar(a))
    }

    /// `a * s` for a scalar `s`.
    pub fn mul_scalar(&mut self, a: Var, s: f32) -> Var {
        let out = self.value(a).map(|x| x * s);
        self.push(out, Op::MulScalar(a, s))
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let out = self.value(a).matmul(self.value(b));
        self.push(out, Op::MatMul(a, b))
    }

    /// Transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let out = self.value(a).transpose();
        self.push(out, Op::Transpose(a))
    }

    /// Gather rows of `table` by index: output row `i` is
    /// `table.row(indices[i])`. The backward pass scatter-adds, which is the
    /// sparse embedding-table update.
    pub fn gather_rows(&mut self, table: Var, indices: &[u32]) -> Var {
        let out = self.value(table).gather_rows(indices);
        self.push(out, Op::Gather(table, indices.to_vec()))
    }

    /// Gather rows of an **external** parameter table by index, without
    /// putting the table itself on the tape: output row `i` is
    /// `table.row(indices[i])`.
    ///
    /// This is the sparse training hot path. The backward pass accumulates
    /// a [`SparseGrad`] holding only the touched rows — no dense gradient
    /// the size of the table is ever allocated — retrievable after
    /// [`Graph::backward`] via [`Graph::external_grad`] /
    /// [`Graph::take_external_grads`]. Repeated calls with the same `name`
    /// accumulate into the same sparse gradient; the caller guarantees the
    /// same tensor is passed for a given name within one tape.
    pub fn gather_external(&mut self, name: &str, table: &Tensor, indices: &[u32]) -> Var {
        let slot = self.register_external(name, table);
        let out = table.gather_rows(indices);
        self.push(out, Op::GatherExternal(slot as u32, indices.to_vec()))
    }

    fn register_external(&mut self, name: &str, table: &Tensor) -> usize {
        match self.externals.iter().position(|e| e.name == name) {
            Some(i) => {
                assert_eq!(
                    self.externals[i].cols,
                    table.cols(),
                    "external parameter {name:?} re-registered with a different width"
                );
                i
            }
            None => {
                self.externals.push(ExternalParam {
                    name: name.to_owned(),
                    cols: table.cols(),
                    rows: table.rows(),
                    grad: None,
                });
                self.externals.len() - 1
            }
        }
    }

    /// The sparse gradient accumulated for the named external parameter,
    /// available after [`Graph::backward`].
    pub fn external_grad(&self, name: &str) -> Option<&SparseGrad> {
        self.externals
            .iter()
            .find(|e| e.name == name)
            .and_then(|e| e.grad.as_ref())
    }

    /// Take ownership of every accumulated external sparse gradient as
    /// `(name, grad)` pairs, leaving the registrations in place.
    pub fn take_external_grads(&mut self) -> Vec<(String, SparseGrad)> {
        self.externals
            .iter_mut()
            .filter_map(|e| e.grad.take().map(|g| (e.name.clone(), g)))
            .collect()
    }

    /// Scatter rows of `src` into `out_rows` buckets and average: output row
    /// `t` is the mean of `src` rows `i` with `targets[i] == t` (zero when a
    /// bucket is empty). This is the GNN neighbourhood-mean aggregator.
    pub fn scatter_mean(&mut self, src: Var, targets: &[u32], out_rows: usize) -> Var {
        let s = self.value(src);
        assert_eq!(targets.len(), s.rows(), "one target per source row");
        let cols = s.cols();
        let mut out = Tensor::zeros(out_rows, cols);
        let mut counts = vec![0u32; out_rows];
        for (i, &t) in targets.iter().enumerate() {
            let t = t as usize;
            assert!(t < out_rows, "scatter target out of range");
            counts[t] += 1;
            let src_row = s.row(i).to_vec();
            let out_row = out.row_mut(t);
            for (o, v) in out_row.iter_mut().zip(src_row) {
                *o += v;
            }
        }
        for (t, &c) in counts.iter().enumerate() {
            if c > 1 {
                let inv = 1.0 / c as f32;
                for v in out.row_mut(t) {
                    *v *= inv;
                }
            }
        }
        self.push(
            out,
            Op::ScatterMean {
                src,
                targets: targets.to_vec(),
                counts,
            },
        )
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements, yielding a `1×1` scalar.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let out = Tensor::scalar(self.value(a).sum());
        self.push(out, Op::SumAll(a))
    }

    /// Mean of all elements, yielding a `1×1` scalar.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let t = self.value(a);
        let out = Tensor::scalar(t.sum() / t.len() as f32);
        self.push(out, Op::MeanAll(a))
    }

    // ------------------------------------------------------------------
    // Elementwise unary ops
    // ------------------------------------------------------------------

    /// Rectified linear unit; also the paper's hinge `|x|₊ = max(x, 0)`.
    pub fn relu(&mut self, a: Var) -> Var {
        let out = self.value(a).map(|x| x.max(0.0));
        self.push(out, Op::Relu(a))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let out = self.value(a).map(f32::tanh);
        self.push(out, Op::Tanh(a))
    }

    /// Elementwise `exp`.
    pub fn exp(&mut self, a: Var) -> Var {
        let out = self.value(a).map(f32::exp);
        self.push(out, Op::Exp(a))
    }

    /// Elementwise natural log (inputs must be positive).
    pub fn log(&mut self, a: Var) -> Var {
        let out = self.value(a).map(f32::ln);
        self.push(out, Op::Log(a))
    }

    /// Elementwise negation.
    pub fn neg(&mut self, a: Var) -> Var {
        let out = self.value(a).map(|x| -x);
        self.push(out, Op::Neg(a))
    }

    /// Elementwise `x^p` (used by the focal loss `(1-p)^γ`). Inputs should
    /// be non-negative for non-integer `p`.
    pub fn pow_scalar(&mut self, a: Var, p: f32) -> Var {
        let out = self.value(a).map(|x| x.powf(p));
        self.push(out, Op::PowScalar(a, p))
    }

    /// Elementwise sine (RotatE phases).
    pub fn sin(&mut self, a: Var) -> Var {
        let out = self.value(a).map(f32::sin);
        self.push(out, Op::Sin(a))
    }

    /// Elementwise cosine (RotatE phases).
    pub fn cos(&mut self, a: Var) -> Var {
        let out = self.value(a).map(f32::cos);
        self.push(out, Op::Cos(a))
    }

    // ------------------------------------------------------------------
    // Shape ops
    // ------------------------------------------------------------------

    /// Columns `[start, end)` of `a`.
    pub fn slice_cols(&mut self, a: Var, start: usize, end: usize) -> Var {
        let t = self.value(a);
        assert!(start < end && end <= t.cols(), "slice_cols out of range");
        let mut out = Tensor::zeros(t.rows(), end - start);
        for r in 0..t.rows() {
            let src_row = t.row(r)[start..end].to_vec();
            out.row_mut(r).copy_from_slice(&src_row);
        }
        self.push(out, Op::SliceCols(a, start, end))
    }

    /// Horizontal concatenation `[a | b]` (same row count).
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let (ta, tb) = (self.value(a), self.value(b));
        assert_eq!(ta.rows(), tb.rows(), "concat_cols row mismatch");
        let mut out = Tensor::zeros(ta.rows(), ta.cols() + tb.cols());
        for r in 0..ta.rows() {
            let left = ta.row(r).to_vec();
            let right = tb.row(r).to_vec();
            let dst = out.row_mut(r);
            dst[..left.len()].copy_from_slice(&left);
            dst[left.len()..].copy_from_slice(&right);
        }
        self.push(out, Op::ConcatCols(a, b))
    }

    // ------------------------------------------------------------------
    // Broadcasting ops
    // ------------------------------------------------------------------

    /// Add the row vector `v` (1×n) to every row of `a` (m×n): the bias add.
    pub fn add_rowvec(&mut self, a: Var, v: Var) -> Var {
        let (ta, tv) = (self.value(a), self.value(v));
        assert_eq!(tv.shape(), (1, ta.cols()), "add_rowvec shape mismatch");
        let mut out = ta.clone();
        let bias = tv.row(0).to_vec();
        for r in 0..out.rows() {
            for (o, b) in out.row_mut(r).iter_mut().zip(bias.iter()) {
                *o += b;
            }
        }
        self.push(out, Op::AddRowVec(a, v))
    }

    // ------------------------------------------------------------------
    // Row-wise geometry
    // ------------------------------------------------------------------

    /// Per-row Euclidean norm: `m×n → m×1`.
    pub fn rows_l2norm(&mut self, a: Var) -> Var {
        let t = self.value(a);
        let mut out = Tensor::zeros(t.rows(), 1);
        for r in 0..t.rows() {
            out.set(r, 0, t.row(r).iter().map(|x| x * x).sum::<f32>().sqrt());
        }
        self.push(out, Op::RowsL2Norm(a))
    }

    /// Per-row cosine similarity of two equal-shape matrices: `m×n → m×1`.
    pub fn cosine_rows(&mut self, a: Var, b: Var) -> Var {
        let (ta, tb) = (self.value(a), self.value(b));
        assert_eq!(ta.shape(), tb.shape(), "cosine_rows shape mismatch");
        let mut out = Tensor::zeros(ta.rows(), 1);
        for r in 0..ta.rows() {
            out.set(r, 0, crate::tensor::cosine(ta.row(r), tb.row(r)));
        }
        self.push(out, Op::CosineRows(a, b))
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let t = self.value(a);
        let mut out = t.clone();
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut z = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                z += *v;
            }
            for v in row.iter_mut() {
                *v /= z;
            }
        }
        self.push(out, Op::SoftmaxRows(a))
    }

    // ------------------------------------------------------------------
    // Backward
    // ------------------------------------------------------------------

    /// Run reverse-mode differentiation from the scalar node `loss`.
    ///
    /// Gradients accumulate into every node reachable from `loss`; query
    /// them with [`Graph::grad`].
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward requires a scalar loss"
        );
        for n in self.nodes.iter_mut() {
            n.grad = None;
        }
        for e in self.externals.iter_mut() {
            e.grad = None;
        }
        self.nodes[loss.index()].grad = Some(Tensor::scalar(1.0));

        for i in (0..self.nodes.len()).rev() {
            // Take the gradient out so propagate can borrow self mutably
            // (it only touches parents, which have smaller indices), then
            // put it back: the node keeps its gradient for inspection.
            let g = match self.nodes[i].grad.take() {
                Some(g) => g,
                None => continue,
            };
            self.propagate(i, &g);
            self.nodes[i].grad = Some(g);
        }
    }

    fn accumulate(&mut self, v: Var, delta: Tensor) {
        let node = &mut self.nodes[v.index()];
        match &mut node.grad {
            Some(g) => g.add_assign(&delta),
            None => node.grad = Some(delta),
        }
    }

    fn propagate(&mut self, idx: usize, g: &Tensor) {
        // External gathers only touch `self.externals`; handle them first
        // with split field borrows so their payloads need no cloning.
        if let Op::GatherExternal(slot, indices) = &self.nodes[idx].op {
            let e = &mut self.externals[*slot as usize];
            let (cols, rows) = (e.cols, e.rows);
            let sg = e
                .grad
                .get_or_insert_with(|| SparseGrad::with_rows(cols, rows));
            sg.add_gathered(indices, g);
            return;
        }
        // Clone the small bits of op metadata we need, to end the borrow.
        match &self.nodes[idx].op {
            Op::Leaf => {}
            Op::Add(a, b) => {
                let (a, b) = (*a, *b);
                self.accumulate(a, g.clone());
                self.accumulate(b, g.clone());
            }
            Op::Sub(a, b) => {
                let (a, b) = (*a, *b);
                self.accumulate(a, g.clone());
                self.accumulate(b, g.map(|x| -x));
            }
            Op::Mul(a, b) => {
                let (a, b) = (*a, *b);
                let ga = {
                    let tb = self.value(b);
                    let data = g
                        .as_slice()
                        .iter()
                        .zip(tb.as_slice())
                        .map(|(x, y)| x * y)
                        .collect();
                    Tensor::from_vec(g.rows(), g.cols(), data)
                };
                let gb = {
                    let ta = self.value(a);
                    let data = g
                        .as_slice()
                        .iter()
                        .zip(ta.as_slice())
                        .map(|(x, y)| x * y)
                        .collect();
                    Tensor::from_vec(g.rows(), g.cols(), data)
                };
                self.accumulate(a, ga);
                self.accumulate(b, gb);
            }
            Op::AddScalar(a) => {
                let a = *a;
                self.accumulate(a, g.clone());
            }
            Op::MulScalar(a, s) => {
                let (a, s) = (*a, *s);
                self.accumulate(a, g.map(|x| x * s));
            }
            Op::MatMul(a, b) => {
                let (a, b) = (*a, *b);
                // Fused kernels: ∇A = g·Bᵀ and ∇B = Aᵀ·g without
                // materializing either transpose.
                let ga = g.matmul_transpose(self.value(b));
                let gb = self.value(a).tr_matmul(g);
                self.accumulate(a, ga);
                self.accumulate(b, gb);
            }
            Op::Transpose(a) => {
                let a = *a;
                self.accumulate(a, g.transpose());
            }
            Op::Gather(table, indices) => {
                let table = *table;
                let indices = indices.clone();
                let t = self.value(table);
                let mut gt = Tensor::zeros(t.rows(), t.cols());
                for (o, &i) in indices.iter().enumerate() {
                    let src = g.row(o).to_vec();
                    let dst = gt.row_mut(i as usize);
                    for (d, s) in dst.iter_mut().zip(src) {
                        *d += s;
                    }
                }
                self.accumulate(table, gt);
            }
            Op::GatherExternal(..) => {
                unreachable!("handled by the split-borrow fast path above")
            }
            Op::ScatterMean {
                src,
                targets,
                counts,
            } => {
                let src = *src;
                let targets = targets.clone();
                let counts = counts.clone();
                let s = self.value(src);
                let mut gs = Tensor::zeros(s.rows(), s.cols());
                for (i, &t) in targets.iter().enumerate() {
                    let c = counts[t as usize].max(1) as f32;
                    let grow = g.row(t as usize).to_vec();
                    let dst = gs.row_mut(i);
                    for (d, v) in dst.iter_mut().zip(grow) {
                        *d += v / c;
                    }
                }
                self.accumulate(src, gs);
            }
            Op::SumAll(a) => {
                let a = *a;
                let s = g.item();
                let t = self.value(a);
                self.accumulate(a, Tensor::full(t.rows(), t.cols(), s));
            }
            Op::MeanAll(a) => {
                let a = *a;
                let t = self.value(a);
                let s = g.item() / t.len() as f32;
                self.accumulate(a, Tensor::full(t.rows(), t.cols(), s));
            }
            Op::Relu(a) => {
                let a = *a;
                let ta = self.value(a);
                let data = g
                    .as_slice()
                    .iter()
                    .zip(ta.as_slice())
                    .map(|(gv, x)| if *x > 0.0 { *gv } else { 0.0 })
                    .collect();
                self.accumulate(a, Tensor::from_vec(g.rows(), g.cols(), data));
            }
            Op::Tanh(a) => {
                let a = *a;
                let y = self.nodes[idx].value.clone();
                let data = g
                    .as_slice()
                    .iter()
                    .zip(y.as_slice())
                    .map(|(gv, yv)| gv * (1.0 - yv * yv))
                    .collect();
                self.accumulate(a, Tensor::from_vec(g.rows(), g.cols(), data));
            }
            Op::Exp(a) => {
                let a = *a;
                let y = self.nodes[idx].value.clone();
                let data = g
                    .as_slice()
                    .iter()
                    .zip(y.as_slice())
                    .map(|(gv, yv)| gv * yv)
                    .collect();
                self.accumulate(a, Tensor::from_vec(g.rows(), g.cols(), data));
            }
            Op::Log(a) => {
                let a = *a;
                let ta = self.value(a);
                let data = g
                    .as_slice()
                    .iter()
                    .zip(ta.as_slice())
                    .map(|(gv, x)| gv / x)
                    .collect();
                self.accumulate(a, Tensor::from_vec(g.rows(), g.cols(), data));
            }
            Op::Neg(a) => {
                let a = *a;
                self.accumulate(a, g.map(|x| -x));
            }
            Op::PowScalar(a, p) => {
                let (a, p) = (*a, *p);
                let ta = self.value(a);
                let data = g
                    .as_slice()
                    .iter()
                    .zip(ta.as_slice())
                    .map(|(gv, x)| gv * p * x.powf(p - 1.0))
                    .collect();
                self.accumulate(a, Tensor::from_vec(g.rows(), g.cols(), data));
            }
            Op::Sin(a) => {
                let a = *a;
                let ta = self.value(a);
                let data = g
                    .as_slice()
                    .iter()
                    .zip(ta.as_slice())
                    .map(|(gv, x)| gv * x.cos())
                    .collect();
                self.accumulate(a, Tensor::from_vec(g.rows(), g.cols(), data));
            }
            Op::Cos(a) => {
                let a = *a;
                let ta = self.value(a);
                let data = g
                    .as_slice()
                    .iter()
                    .zip(ta.as_slice())
                    .map(|(gv, x)| -gv * x.sin())
                    .collect();
                self.accumulate(a, Tensor::from_vec(g.rows(), g.cols(), data));
            }
            Op::SliceCols(a, start, end) => {
                let (a, start, end) = (*a, *start, *end);
                let ta = self.value(a);
                let mut ga = Tensor::zeros(ta.rows(), ta.cols());
                for r in 0..ta.rows() {
                    let src = g.row(r).to_vec();
                    ga.row_mut(r)[start..end].copy_from_slice(&src);
                }
                self.accumulate(a, ga);
            }
            Op::ConcatCols(a, b) => {
                let (a, b) = (*a, *b);
                let ca = self.value(a).cols();
                let cb = self.value(b).cols();
                let rows = g.rows();
                let mut ga = Tensor::zeros(rows, ca);
                let mut gb = Tensor::zeros(rows, cb);
                for r in 0..rows {
                    let src = g.row(r).to_vec();
                    ga.row_mut(r).copy_from_slice(&src[..ca]);
                    gb.row_mut(r).copy_from_slice(&src[ca..]);
                }
                self.accumulate(a, ga);
                self.accumulate(b, gb);
            }
            Op::AddRowVec(a, v) => {
                let (a, v) = (*a, *v);
                let cols = self.value(v).cols();
                let mut gv = Tensor::zeros(1, cols);
                for r in 0..g.rows() {
                    let src = g.row(r).to_vec();
                    for (d, s) in gv.row_mut(0).iter_mut().zip(src) {
                        *d += s;
                    }
                }
                self.accumulate(a, g.clone());
                self.accumulate(v, gv);
            }
            Op::RowsL2Norm(a) => {
                let a = *a;
                let ta = self.value(a).clone();
                let y = self.nodes[idx].value.clone();
                let mut ga = Tensor::zeros(ta.rows(), ta.cols());
                for r in 0..ta.rows() {
                    let n = y.get(r, 0);
                    if n <= NORM_EPS {
                        continue;
                    }
                    let s = g.get(r, 0) / n;
                    let arow = ta.row(r).to_vec();
                    for (d, x) in ga.row_mut(r).iter_mut().zip(arow) {
                        *d = s * x;
                    }
                }
                self.accumulate(a, ga);
            }
            Op::CosineRows(a, b) => {
                let (a, b) = (*a, *b);
                let (ta, tb) = (self.value(a), self.value(b));
                let mut ga = Tensor::zeros(ta.rows(), ta.cols());
                let mut gb = Tensor::zeros(tb.rows(), tb.cols());
                for r in 0..ta.rows() {
                    let (x, y) = (ta.row(r), tb.row(r));
                    let nx = x.iter().map(|v| v * v).sum::<f32>().sqrt();
                    let ny = y.iter().map(|v| v * v).sum::<f32>().sqrt();
                    if nx <= NORM_EPS || ny <= NORM_EPS {
                        continue;
                    }
                    let dot: f32 = x.iter().zip(y).map(|(p, q)| p * q).sum();
                    // The norm products are hoisted, but every element
                    // still divides by them (no reciprocal-multiply), so
                    // the gradients are bitwise the textbook formula.
                    let (nxy, nxx, nyy) = (nx * ny, nx * nx, ny * ny);
                    let cosv = dot / nxy;
                    let s = g.get(r, 0);
                    let rows = ga.row_mut(r).iter_mut().zip(gb.row_mut(r));
                    for ((da, db), (&xc, &yc)) in rows.zip(x.iter().zip(y)) {
                        *da = s * (yc / nxy - cosv * xc / nxx);
                        *db = s * (xc / nxy - cosv * yc / nyy);
                    }
                }
                self.accumulate(a, ga);
                self.accumulate(b, gb);
            }
            Op::SoftmaxRows(a) => {
                let a = *a;
                let y = self.nodes[idx].value.clone();
                let mut ga = Tensor::zeros(y.rows(), y.cols());
                for r in 0..y.rows() {
                    let yr = y.row(r);
                    let gr = g.row(r);
                    let dot: f32 = yr.iter().zip(gr).map(|(p, q)| p * q).sum();
                    for c in 0..y.cols() {
                        ga.set(r, c, yr[c] * (gr[c] - dot));
                    }
                }
                self.accumulate(a, ga);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar_graph(f: impl Fn(&mut Graph, Var) -> Var, x: Tensor) -> (Tensor, Tensor) {
        let mut g = Graph::new();
        let v = g.leaf(x);
        let out = f(&mut g, v);
        let loss = g.sum_all(out);
        g.backward(loss);
        (g.value(loss).clone(), g.grad(v).unwrap().clone())
    }

    #[test]
    fn add_and_sub_gradients() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::row_vector(&[1.0, 2.0]));
        let b = g.leaf(Tensor::row_vector(&[3.0, 5.0]));
        let s = g.sub(a, b);
        let s2 = g.mul(s, s);
        let loss = g.sum_all(s2); // (a-b)^2 summed
        g.backward(loss);
        assert_eq!(g.value(loss).item(), 4.0 + 9.0);
        assert_eq!(g.grad(a).unwrap().as_slice(), &[-4.0, -6.0]); // 2(a-b)
        assert_eq!(g.grad(b).unwrap().as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn matmul_gradients() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let b = g.leaf(Tensor::from_rows(&[&[5.0], &[6.0]]));
        let c = g.matmul(a, b);
        let loss = g.sum_all(c);
        g.backward(loss);
        // dL/dA = 1 · B^T broadcast over rows.
        assert_eq!(g.grad(a).unwrap().as_slice(), &[5.0, 6.0, 5.0, 6.0]);
        // dL/dB = A^T · 1.
        assert_eq!(g.grad(b).unwrap().as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn relu_masks_gradient() {
        let (_, grad) = scalar_graph(|g, v| g.relu(v), Tensor::row_vector(&[-1.0, 0.5]));
        assert_eq!(grad.as_slice(), &[0.0, 1.0]);
    }

    #[test]
    fn gather_scatters_gradient() {
        let mut g = Graph::new();
        let table = g.leaf(Tensor::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]));
        let picked = g.gather_rows(table, &[1, 1, 2]);
        let loss = g.sum_all(picked);
        g.backward(loss);
        // Row 1 picked twice, row 2 once, row 0 never.
        assert_eq!(
            g.grad(table).unwrap().as_slice(),
            &[0.0, 0.0, 2.0, 2.0, 1.0, 1.0]
        );
    }

    #[test]
    fn gather_external_accumulates_sparse_rows_only() {
        let table = Tensor::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        let mut g = Graph::new();
        let picked = g.gather_external("tbl", &table, &[1, 1, 2]);
        let loss = g.sum_all(picked);
        g.backward(loss);
        let sg = g.external_grad("tbl").expect("sparse grad accumulated");
        // Row 1 picked twice, row 2 once, row 0 untouched (not stored).
        assert_eq!(sg.nnz_rows(), 2);
        assert_eq!(sg.row(1), Some(&[2.0, 2.0][..]));
        assert_eq!(sg.row(2), Some(&[1.0, 1.0][..]));
        assert_eq!(sg.row(0), None);
        // The densified sparse grad matches the tape-leaf gather backward.
        let mut g2 = Graph::new();
        let leaf = g2.leaf(table.clone());
        let picked2 = g2.gather_rows(leaf, &[1, 1, 2]);
        let loss2 = g2.sum_all(picked2);
        g2.backward(loss2);
        assert_eq!(&sg.to_dense(3), g2.grad(leaf).unwrap());
    }

    #[test]
    fn gather_external_same_name_merges_across_calls() {
        let table = Tensor::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let mut g = Graph::new();
        let a = g.gather_external("tbl", &table, &[0, 1]);
        let b = g.gather_external("tbl", &table, &[1, 2]);
        let s = g.add(a, b);
        let loss = g.sum_all(s);
        g.backward(loss);
        let sg = g.external_grad("tbl").unwrap();
        assert_eq!(sg.to_dense(3).as_slice(), &[1.0, 2.0, 1.0]);
        let taken = g.take_external_grads();
        assert_eq!(taken.len(), 1);
        assert_eq!(taken[0].0, "tbl");
        assert!(g.external_grad("tbl").is_none());
    }

    #[test]
    fn scatter_mean_averages_and_backprops() {
        let mut g = Graph::new();
        let src = g.leaf(Tensor::from_rows(&[&[2.0], &[4.0], &[10.0]]));
        let agg = g.scatter_mean(src, &[0, 0, 1], 3);
        assert_eq!(g.value(agg).as_slice(), &[3.0, 10.0, 0.0]);
        let loss = g.sum_all(agg);
        g.backward(loss);
        assert_eq!(g.grad(src).unwrap().as_slice(), &[0.5, 0.5, 1.0]);
    }

    #[test]
    fn softmax_rows_sums_to_one_and_grad_balances() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::row_vector(&[1.0, 2.0, 3.0]));
        let y = g.softmax_rows(x);
        let total: f32 = g.value(y).as_slice().iter().sum();
        assert!((total - 1.0).abs() < 1e-6);
        // Loss = first prob; softmax grads sum to zero per row.
        let probe = g.leaf(Tensor::row_vector(&[1.0, 0.0, 0.0]));
        let picked = g.mul(y, probe);
        let loss = g.sum_all(picked);
        g.backward(loss);
        let gx = g.grad(x).unwrap();
        let s: f32 = gx.as_slice().iter().sum();
        assert!(s.abs() < 1e-6);
    }

    #[test]
    fn rows_l2norm_gradient_is_unit_direction() {
        let (val, grad) = scalar_graph(|g, v| g.rows_l2norm(v), Tensor::row_vector(&[3.0, 4.0]));
        assert!((val.item() - 5.0).abs() < 1e-6);
        assert!((grad.as_slice()[0] - 0.6).abs() < 1e-6);
        assert!((grad.as_slice()[1] - 0.8).abs() < 1e-6);
    }

    #[test]
    fn cosine_rows_of_identical_vectors_has_zero_grad() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::row_vector(&[1.0, 2.0]));
        let b = g.leaf(Tensor::row_vector(&[1.0, 2.0]));
        let c = g.cosine_rows(a, b);
        assert!((g.value(c).item() - 1.0).abs() < 1e-6);
        let loss = g.sum_all(c);
        g.backward(loss);
        // cos(x, x) = 1 is a maximum: gradient ~ 0.
        for v in g.grad(a).unwrap().as_slice() {
            assert!(v.abs() < 1e-5);
        }
    }

    #[test]
    fn cosine_rows_backward_matches_the_reference_formula_bitwise() {
        let x = Tensor::from_rows(&[
            &[0.3, -1.2, 2.0, 0.5],
            &[0.0, 0.0, 0.0, 0.0],
            &[1e-20, 0.0, -1e-20, 0.0],
            &[1e-6, -2e-6, 0.0, 1e-6],
            &[1.0, 2.0, 3.0, 4.0],
            &[-0.7, 0.1, 0.0, 0.9],
        ]);
        let y = Tensor::from_rows(&[
            &[1.1, 0.4, -0.3, 2.2],
            &[0.5, 0.5, 0.5, 0.5],
            &[1.0, 0.0, 0.0, 1.0],
            &[0.2, 3.0, -1.0, 0.1],
            &[0.0, 0.0, 0.0, 0.0],
            &[1e-7, -2.0, 0.3, 0.3],
        ]);
        let w = Tensor::from_vec(6, 1, vec![0.7, -1.3, 2.0, 0.25, -0.9, 1.5]);
        let mut g = Graph::new();
        let (a, b) = (g.leaf(x.clone()), g.leaf(y.clone()));
        let c = g.cosine_rows(a, b);
        let wv = g.leaf(w.clone());
        let weighted = g.mul(c, wv);
        let loss = g.sum_all(weighted);
        g.backward(loss);

        // The textbook per-element formula, written out in full.
        let (mut ga, mut gb) = (Tensor::zeros(6, 4), Tensor::zeros(6, 4));
        for r in 0..6 {
            let (xr, yr) = (x.row(r), y.row(r));
            let nx = xr.iter().map(|v| v * v).sum::<f32>().sqrt();
            let ny = yr.iter().map(|v| v * v).sum::<f32>().sqrt();
            if nx <= NORM_EPS || ny <= NORM_EPS {
                continue;
            }
            let dot: f32 = xr.iter().zip(yr).map(|(p, q)| p * q).sum();
            let cosv = dot / (nx * ny);
            let s = w.get(r, 0);
            for c in 0..4 {
                ga.set(r, c, s * (yr[c] / (nx * ny) - cosv * xr[c] / (nx * nx)));
                gb.set(r, c, s * (xr[c] / (nx * ny) - cosv * yr[c] / (ny * ny)));
            }
        }
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(g.grad(a).unwrap()), bits(&ga));
        assert_eq!(bits(g.grad(b).unwrap()), bits(&gb));
        // Zero and tiny-norm rows get no gradient at all.
        for r in [1, 2, 4] {
            assert!(g.grad(a).unwrap().row(r).iter().all(|v| *v == 0.0));
        }
    }

    #[test]
    fn slice_and_concat_roundtrip_gradient() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::row_vector(&[1.0, 2.0, 3.0, 4.0]));
        let a = g.slice_cols(x, 0, 2);
        let b = g.slice_cols(x, 2, 4);
        let y = g.concat_cols(a, b);
        let loss = g.sum_all(y);
        g.backward(loss);
        assert_eq!(g.grad(x).unwrap().as_slice(), &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(g.value(y).as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn broadcast_ops() {
        let mut g2 = Graph::new();
        let a2 = g2.leaf(Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let v = g2.leaf(Tensor::row_vector(&[10.0, 20.0]));
        let y2 = g2.add_rowvec(a2, v);
        assert_eq!(g2.value(y2).as_slice(), &[11.0, 22.0, 13.0, 24.0]);
        let loss2 = g2.sum_all(y2);
        g2.backward(loss2);
        assert_eq!(g2.grad(v).unwrap().as_slice(), &[2.0, 2.0]);
    }

    #[test]
    fn chain_through_many_ops() {
        // loss = mean(exp(tanh(x) * 2 + 1))
        let (_, grad) = scalar_graph(
            |g, v| {
                let t = g.tanh(v);
                let m = g.mul_scalar(t, 2.0);
                let a = g.add_scalar(m, 1.0);
                let e = g.exp(a);
                g.mean_all(e)
            },
            Tensor::row_vector(&[0.3, -0.7]),
        );
        // Smoke-test: gradient exists and is finite (exact values checked by
        // the finite-difference property tests in grad_check).
        for v in grad.as_slice() {
            assert!(v.is_finite());
        }
    }

    #[test]
    fn backward_twice_resets_gradients() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::row_vector(&[2.0]));
        let y = g.mul(x, x);
        let loss = g.sum_all(y);
        g.backward(loss);
        let g1 = g.grad(x).unwrap().clone();
        g.backward(loss);
        let g2 = g.grad(x).unwrap().clone();
        assert_eq!(g1, g2); // no double accumulation
        assert_eq!(g1.as_slice(), &[4.0]);
    }
}
