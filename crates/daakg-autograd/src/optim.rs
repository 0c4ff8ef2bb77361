//! Named parameter storage and first-order optimizers.
//!
//! Training code keeps master copies of all learnable tensors in a
//! [`ParamStore`] keyed by string names (`"ent_emb"`, `"A_ent"`, ...). Each
//! step, the model clones whichever parameters it needs into a fresh
//! [`Graph`](crate::Graph), runs backward, and hands `(name, gradient)` pairs
//! to an [`Optimizer`].

use crate::sparse::SparseGrad;
use crate::tensor::Tensor;
use std::collections::BTreeMap;

/// Named storage of learnable parameters.
///
/// Backed by a `BTreeMap` so parameter iteration order — and therefore
/// optimizer state allocation and training — is deterministic.
#[derive(Default, Clone)]
pub struct ParamStore {
    params: BTreeMap<String, Tensor>,
}

impl ParamStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert or replace a parameter.
    pub fn insert(&mut self, name: impl Into<String>, value: Tensor) {
        self.params.insert(name.into(), value);
    }

    /// Immutable access; panics on unknown name (programming error).
    pub fn get(&self, name: &str) -> &Tensor {
        self.params
            .get(name)
            .unwrap_or_else(|| panic!("unknown parameter {name:?}"))
    }

    /// Mutable access; panics on unknown name.
    pub fn get_mut(&mut self, name: &str) -> &mut Tensor {
        self.params
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown parameter {name:?}"))
    }

    /// Whether a parameter exists.
    pub fn contains(&self, name: &str) -> bool {
        self.params.contains_key(name)
    }

    /// Iterate over `(name, tensor)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        self.params.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of stored parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of scalar parameters (for the paper's parameter
    /// complexity discussion).
    pub fn num_scalars(&self) -> usize {
        self.params.values().map(Tensor::len).sum()
    }

    /// Move every parameter whose name starts with `prefix` into a new
    /// store, copying no tensor — so two trainers can own disjoint parts
    /// of one model at once. [`ParamStore::absorb`] moves them back.
    pub fn split_prefix(&mut self, prefix: &str) -> ParamStore {
        let (moved, kept) = std::mem::take(&mut self.params)
            .into_iter()
            .partition(|(name, _)| name.starts_with(prefix));
        self.params = kept;
        ParamStore { params: moved }
    }

    /// Move every parameter of `other` into this store, replacing any of
    /// the same name.
    pub fn absorb(&mut self, other: ParamStore) {
        self.params.extend(other.params);
    }
}

/// Sorted, deduplicated union of index slices — the set of parameter rows
/// a batch touches, in the shape [`Adam::refresh_rows`] and the sparse
/// training paths consume.
pub fn unique_rows(parts: &[&[u32]]) -> Vec<u32> {
    let mut v: Vec<u32> = parts.iter().flat_map(|p| p.iter().copied()).collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// A first-order optimizer applying updates to a [`ParamStore`].
pub trait Optimizer {
    /// Apply one update for parameter `name` given its gradient.
    fn step(&mut self, store: &mut ParamStore, name: &str, grad: &Tensor);

    /// Apply one update given a sparse row-gradient.
    ///
    /// The default densifies and delegates to [`Optimizer::step`];
    /// optimizers with a genuinely sparse update rule (row-local state)
    /// override it to touch only the gradient's rows.
    fn step_sparse(&mut self, store: &mut ParamStore, name: &str, grad: &SparseGrad) {
        let rows = store.get(name).rows();
        let dense = grad.to_dense(rows);
        self.step(store, name, &dense);
    }
}

/// Plain stochastic gradient descent, `θ ← θ − lr·g`.
#[derive(Debug, Clone, Copy)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
}

impl Sgd {
    /// SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Self { lr }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, store: &mut ParamStore, name: &str, grad: &Tensor) {
        store.get_mut(name).add_scaled(grad, -self.lr);
    }

    fn step_sparse(&mut self, store: &mut ParamStore, name: &str, grad: &SparseGrad) {
        // SGD is stateless, so the sparse update is trivially exact: rows
        // with zero gradient would not have moved anyway.
        let param = store.get_mut(name);
        assert_eq!(param.cols(), grad.cols(), "gradient width mismatch");
        for (id, row) in grad.iter() {
            let dst = param.row_mut(id as usize);
            for (p, g) in dst.iter_mut().zip(row) {
                *p -= self.lr * g;
            }
        }
    }
}

/// Adam hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct AdamConfig {
    /// Learning rate α.
    pub lr: f32,
    /// First-moment decay β₁.
    pub beta1: f32,
    /// Second-moment decay β₂.
    pub beta2: f32,
    /// Numerical-stability term ε.
    pub eps: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self {
            lr: 1e-2,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }
}

struct AdamState {
    m: Tensor,
    v: Tensor,
    t: u64,
    /// Lazy-update bookkeeping: `row_t[r]` is the step count through which
    /// row `r` has been fully applied. `None` means every row is current
    /// (the pure dense history).
    row_t: Option<Vec<u64>>,
}

/// One step's bias corrections `[1 − β₁ˢ, 1 − β₂ˢ]`.
type Bias = [f32; 2];

/// The per-call constants of the Adam update. `c1`/`c2` are `1 − β₁` and
/// `1 − β₂`, the values the textbook formula recomputes per element.
#[derive(Clone, Copy)]
struct AdamConsts {
    b1: f32,
    b2: f32,
    c1: f32,
    c2: f32,
    lr: f32,
    eps: f32,
}

impl AdamConsts {
    fn of(cfg: &AdamConfig) -> Self {
        Self {
            b1: cfg.beta1,
            b2: cfg.beta2,
            c1: 1.0 - cfg.beta1,
            c2: 1.0 - cfg.beta2,
            lr: cfg.lr,
            eps: cfg.eps,
        }
    }

    /// One Adam update of one element. Every path — dense step, sparse
    /// step, zero-gradient replay (`g = 0.0`) — runs exactly this
    /// operation sequence, which is what makes lazily-updated rows equal
    /// the dense trajectory bit for bit. Keep it free of
    /// reciprocal-multiplies, fused multiply-adds and reassociation.
    #[inline(always)]
    fn elem(&self, p: &mut f32, m: &mut f32, v: &mut f32, g: f32, [bc1, bc2]: Bias) {
        *m = self.b1 * *m + self.c1 * g;
        *v = self.b2 * *v + self.c2 * g * g;
        let mh = *m / bc1;
        let vh = *v / bc2;
        *p -= self.lr * mh / (vh.sqrt() + self.eps);
    }
}

/// Elements per register chunk of the update kernel: one AVX2 vector.
const ADAM_LANES: usize = 8;

/// `W` elements held in registers: replay every zero-gradient step of
/// `replay`, then apply `step` (gradient and bias corrections) if given.
// Index-based lane loops are deliberate: the lanes must be addressed by
// index for the vectorizer to keep them in registers.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
fn adam_lanes<const W: usize>(
    k: &AdamConsts,
    p: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    replay: &[Bias],
    step: Option<(&[f32], Bias)>,
) {
    let mut pl: [f32; W] = (&*p).try_into().expect("chunk of W elements");
    let mut ml: [f32; W] = (&*m).try_into().expect("chunk of W elements");
    let mut vl: [f32; W] = (&*v).try_into().expect("chunk of W elements");
    for &bc in replay {
        for i in 0..W {
            k.elem(&mut pl[i], &mut ml[i], &mut vl[i], 0.0, bc);
        }
    }
    if let Some((g, bc)) = step {
        for i in 0..W {
            k.elem(&mut pl[i], &mut ml[i], &mut vl[i], g[i], bc);
        }
    }
    p.copy_from_slice(&pl);
    m.copy_from_slice(&ml);
    v.copy_from_slice(&vl);
}

/// The shared Adam update/replay kernel over one row (for the dense step,
/// over the whole flat tensor). It walks element-major: each 8-lane chunk
/// runs every replayed step and then the gradient step in registers
/// before the next chunk loads, so a row that lagged `s` steps is read and
/// written once, not `s` times.
///
/// `#[inline(always)]` so the `#[target_feature]` wrapper below inlines
/// this body and re-vectorizes it with AVX2.
#[inline(always)]
fn adam_row(
    k: &AdamConsts,
    p: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    replay: &[Bias],
    step: Option<(&[f32], Bias)>,
) {
    let n = p.len();
    assert!(m.len() == n && v.len() == n, "Adam state width mismatch");
    if let Some((g, _)) = step {
        assert_eq!(g.len(), n, "gradient width mismatch");
    }
    let split = n - n % ADAM_LANES;
    for i in (0..split).step_by(ADAM_LANES) {
        let r = i..i + ADAM_LANES;
        let g = step.map(|(g, bc)| (&g[r.clone()], bc));
        adam_lanes::<ADAM_LANES>(
            k,
            &mut p[r.clone()],
            &mut m[r.clone()],
            &mut v[r],
            replay,
            g,
        );
    }
    for i in split..n {
        let g = step.map(|(g, bc)| (&g[i..=i], bc));
        adam_lanes::<1>(k, &mut p[i..=i], &mut m[i..=i], &mut v[i..=i], replay, g);
    }
}

/// AVX2 re-compilation of [`adam_row`].
///
/// # Safety
/// Caller must verify `avx2` is available at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn adam_row_avx2(
    k: &AdamConsts,
    p: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    replay: &[Bias],
    step: Option<(&[f32], Bias)>,
) {
    adam_row(k, p, m, v, replay, step)
}

/// Catch one row up through the zero-gradient steps `replay`, then apply
/// `step` if given, with the widest compiled-in kernel the running CPU
/// supports (the same runtime dispatch as `daakg_index::scan_block`). A
/// row whose moments are all zero (never touched since the state was
/// created) skips the replay: each of its zero-gradient updates would be a
/// numerical no-op.
fn update_row(
    k: &AdamConsts,
    p: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    replay: &[Bias],
    step: Option<(&[f32], Bias)>,
) {
    let idle = |x: &[f32]| x.iter().all(|e| *e == 0.0);
    let replay = if replay.is_empty() || (idle(m) && idle(v)) {
        &[][..]
    } else {
        replay
    };
    if replay.is_empty() && step.is_none() {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the feature was just verified on this CPU.
        return unsafe { adam_row_avx2(k, p, m, v, replay, step) };
    }
    adam_row(k, p, m, v, replay, step)
}

/// The Adam optimizer (Kingma & Ba) with per-parameter state.
///
/// # Update kernel
///
/// Every update — the dense [`Optimizer::step`], the sparse
/// [`Optimizer::step_sparse`], and the zero-gradient catch-up of
/// [`Adam::refresh_rows`] / [`Adam::flush_param`] — runs one shared kernel.
/// Bias corrections come from a per-step table `(1 − β₁ˢ, 1 − β₂ˢ)`,
/// filled once per step count with the same `powi` the textbook formula
/// calls, instead of two `powi` per row per step. The kernel walks a row
/// element-major: for each 8-lane chunk, every skipped step and then the
/// new gradient step run in registers, so a row that lagged `s` steps is
/// loaded and stored once. Per element it keeps the exact scalar
/// operation sequence — no reciprocal-multiply, no fused multiply-add, no
/// reassociation — so the vectorized kernel reproduces the per-step scalar
/// recurrence bit for bit. On x86-64 the kernel is compiled a second time
/// for AVX2 and selected by runtime detection, like
/// `daakg_index::scan_block`.
///
/// # Sparse / lazy updates and the deferred-decay contract
///
/// Dense Adam moves **every** element at **every** step: even a row with a
/// zero gradient decays its moments (`m ← β₁·m`, `v ← β₂·v`) and takes a
/// bias-corrected momentum step. [`Adam::step_sparse`] defers exactly that
/// work: untouched rows keep their *old* parameter values and a per-row
/// step watermark; when a row is next touched (or explicitly refreshed),
/// the skipped zero-gradient sub-steps are replayed in order, reproducing
/// the dense trajectory bit-for-bit before the new gradient is applied.
///
/// The contract callers must uphold:
///
/// 1. **Refresh before read.** Parameter rows a forward pass will *read*
///    must be brought current first — [`Adam::refresh_rows`] for the rows a
///    batch gathers, or [`Adam::flush`] before any full-table read (a
///    snapshot, a matmul over the whole table, serialization).
/// 2. **Flush before hand-off.** [`Adam::flush`] makes the store equal to
///    what the dense oracle would have produced; call it at the end of
///    training (the trainers do this) before anyone consumes the store.
/// 3. Mixing is safe: a dense [`Adam::step`] on a lazily-updated parameter
///    first flushes its pending rows, so dense and sparse steps may
///    interleave freely.
///
/// Rows whose moments are exactly zero (never touched since the state was
/// created) replay for free: the zero-gradient update is a numerical no-op,
/// so the catch-up skips the arithmetic and only moves the watermark.
pub struct Adam {
    cfg: AdamConfig,
    /// `bias[s]` holds step `s`'s corrections (`bias[0]` is never read),
    /// grown on demand to the largest step count any parameter reached.
    bias: Vec<Bias>,
    state: BTreeMap<String, AdamState>,
}

impl Adam {
    /// Adam with the given configuration.
    pub fn new(cfg: AdamConfig) -> Self {
        Self {
            cfg,
            bias: Vec::new(),
            state: BTreeMap::new(),
        }
    }

    /// Adam with default betas and the given learning rate.
    pub fn with_lr(lr: f32) -> Self {
        Self::new(AdamConfig {
            lr,
            ..AdamConfig::default()
        })
    }

    /// The configured learning rate.
    pub fn lr(&self) -> f32 {
        self.cfg.lr
    }

    /// The bias table extended through step `t`.
    fn bias_through<'a>(bias: &'a mut Vec<Bias>, cfg: &AdamConfig, t: u64) -> &'a [Bias] {
        while bias.len() as u64 <= t {
            let s = bias.len() as i32;
            bias.push([1.0 - cfg.beta1.powi(s), 1.0 - cfg.beta2.powi(s)]);
        }
        bias
    }

    /// Bring the given rows of a lazily-updated parameter current, so a
    /// forward pass may read them. No-op for parameters without pending
    /// lazy state (or without any state at all).
    pub fn refresh_rows(&mut self, store: &mut ParamStore, name: &str, rows: &[u32]) {
        let Some(st) = self.state.get_mut(name) else {
            return;
        };
        let Some(row_t) = st.row_t.as_mut() else {
            return;
        };
        let t = st.t;
        let bias = Self::bias_through(&mut self.bias, &self.cfg, t);
        let k = AdamConsts::of(&self.cfg);
        let param = store.get_mut(name);
        for &r in rows {
            let r = r as usize;
            if row_t[r] >= t {
                continue;
            }
            let (p, m, v) = (param.row_mut(r), st.m.row_mut(r), st.v.row_mut(r));
            update_row(&k, p, m, v, &bias[row_t[r] as usize + 1..=t as usize], None);
            row_t[r] = t;
        }
    }

    /// Bring **every** pending row of the named parameter current and drop
    /// its lazy bookkeeping. See the deferred-decay contract above.
    pub fn flush_param(&mut self, store: &mut ParamStore, name: &str) {
        let Some(st) = self.state.get_mut(name) else {
            return;
        };
        let Some(row_t) = st.row_t.take() else {
            return;
        };
        let t = st.t;
        let bias = Self::bias_through(&mut self.bias, &self.cfg, t);
        let k = AdamConsts::of(&self.cfg);
        let param = store.get_mut(name);
        for (r, &wm) in row_t.iter().enumerate() {
            if wm >= t {
                continue;
            }
            let (p, m, v) = (param.row_mut(r), st.m.row_mut(r), st.v.row_mut(r));
            update_row(&k, p, m, v, &bias[wm as usize + 1..=t as usize], None);
        }
    }

    /// Flush every parameter with pending lazy updates: afterwards the
    /// store holds exactly what dense Adam would have produced.
    pub fn flush(&mut self, store: &mut ParamStore) {
        let names: Vec<String> = self
            .state
            .iter()
            .filter(|(_, st)| st.row_t.is_some())
            .map(|(n, _)| n.clone())
            .collect();
        for name in names {
            self.flush_param(store, &name);
        }
    }

    /// Number of rows of `name` whose lazy update is still pending
    /// (diagnostics / tests).
    pub fn pending_rows(&self, name: &str) -> usize {
        self.state
            .get(name)
            .and_then(|st| st.row_t.as_ref().map(|rt| (st.t, rt)))
            .map(|(t, rt)| rt.iter().filter(|&&wm| wm < t).count())
            .unwrap_or(0)
    }

    fn state_for<'a>(
        state: &'a mut BTreeMap<String, AdamState>,
        name: &str,
        shape: (usize, usize),
    ) -> &'a mut AdamState {
        state.entry(name.to_owned()).or_insert_with(|| AdamState {
            m: Tensor::zeros(shape.0, shape.1),
            v: Tensor::zeros(shape.0, shape.1),
            t: 0,
            row_t: None,
        })
    }
}

impl Optimizer for Adam {
    fn step(&mut self, store: &mut ParamStore, name: &str, grad: &Tensor) {
        // A dense step reads and writes every row, so pending lazy rows
        // must catch up first (keeps dense/sparse interleaving exact).
        self.flush_param(store, name);
        let param = store.get_mut(name);
        assert_eq!(param.shape(), grad.shape(), "gradient shape mismatch");
        let st = Self::state_for(&mut self.state, name, grad.shape());
        st.t += 1;
        let bias = Self::bias_through(&mut self.bias, &self.cfg, st.t)[st.t as usize];
        update_row(
            &AdamConsts::of(&self.cfg),
            param.as_mut_slice(),
            st.m.as_mut_slice(),
            st.v.as_mut_slice(),
            &[],
            Some((grad.as_slice(), bias)),
        );
    }

    fn step_sparse(&mut self, store: &mut ParamStore, name: &str, grad: &SparseGrad) {
        let param = store.get_mut(name);
        assert_eq!(param.cols(), grad.cols(), "gradient width mismatch");
        let rows = param.rows();
        let st = Self::state_for(&mut self.state, name, (rows, param.cols()));
        st.t += 1;
        let t = st.t;
        let bias = Self::bias_through(&mut self.bias, &self.cfg, t);
        let k = AdamConsts::of(&self.cfg);
        let row_t = st.row_t.get_or_insert_with(|| vec![t - 1; rows]);
        for (id, grow) in grad.iter() {
            let r = id as usize;
            let (p, m, v) = (param.row_mut(r), st.m.row_mut(r), st.v.row_mut(r));
            // Replay steps `row_t[r] + 1 ..= t - 1`, then take step `t`.
            let replay = &bias[row_t[r] as usize + 1..t as usize];
            update_row(&k, p, m, v, replay, Some((grow, bias[t as usize])));
            row_t[r] = t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn quadratic_loss(store: &ParamStore) -> (f32, Tensor) {
        // loss = sum((x - target)^2), target = [1, -2].
        let mut g = Graph::new();
        let x = g.leaf(store.get("x").clone());
        let target = g.leaf(Tensor::row_vector(&[1.0, -2.0]));
        let d = g.sub(x, target);
        let d2 = g.mul(d, d);
        let loss = g.sum_all(d2);
        g.backward(loss);
        (g.value(loss).item(), g.grad(x).unwrap().clone())
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn sgd_descends_quadratic() {
        let mut store = ParamStore::new();
        store.insert("x", Tensor::row_vector(&[5.0, 5.0]));
        let mut opt = Sgd::new(0.1);
        let (mut prev, _) = quadratic_loss(&store);
        for _ in 0..50 {
            let (l, g) = quadratic_loss(&store);
            assert!(l <= prev + 1e-6);
            prev = l;
            opt.step(&mut store, "x", &g);
        }
        let x = store.get("x");
        assert!((x.as_slice()[0] - 1.0).abs() < 1e-3);
        assert!((x.as_slice()[1] + 2.0).abs() < 1e-3);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut store = ParamStore::new();
        store.insert("x", Tensor::row_vector(&[5.0, 5.0]));
        let mut opt = Adam::with_lr(0.2);
        for _ in 0..300 {
            let (_, g) = quadratic_loss(&store);
            opt.step(&mut store, "x", &g);
        }
        let x = store.get("x");
        assert!((x.as_slice()[0] - 1.0).abs() < 1e-2);
        assert!((x.as_slice()[1] + 2.0).abs() < 1e-2);
    }

    #[test]
    fn adam_state_is_per_parameter() {
        let mut store = ParamStore::new();
        store.insert("a", Tensor::scalar(1.0));
        store.insert("b", Tensor::scalar(1.0));
        let mut opt = Adam::with_lr(0.1);
        // Update only "a" many times; "b" must be untouched.
        for _ in 0..10 {
            opt.step(&mut store, "a", &Tensor::scalar(1.0));
        }
        assert!(store.get("a").item() < 1.0);
        assert_eq!(store.get("b").item(), 1.0);
    }

    /// Deterministic pseudo-random f32 in [-1, 1) from a counter.
    fn prand(state: &mut u64) -> f32 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
    }

    fn random_tensor(rows: usize, cols: usize, seed: &mut u64) -> Tensor {
        Tensor::from_vec(rows, cols, (0..rows * cols).map(|_| prand(seed)).collect())
    }

    /// A sequence of sparse batches: each step touches a few (possibly
    /// repeated) rows of an 8-row table.
    fn sparse_batches(steps: usize, rows: u32, cols: usize, seed: &mut u64) -> Vec<SparseGrad> {
        (0..steps)
            .map(|s| {
                let mut g = SparseGrad::new(cols);
                let touches = 1 + (s % 3);
                for i in 0..touches {
                    let row = ((prand(seed).abs() * rows as f32) as u32).min(rows - 1);
                    let vals: Vec<f32> = (0..cols).map(|_| prand(seed)).collect();
                    g.add_row(row, &vals);
                    if i == 0 {
                        // Exercise repeated-row accumulation.
                        g.add_row(row, &vals);
                    }
                }
                g
            })
            .collect()
    }

    #[test]
    fn sparse_adam_with_flush_matches_dense_exactly() {
        let mut seed = 7u64;
        let init = random_tensor(8, 3, &mut seed);
        let batches = sparse_batches(20, 8, 3, &mut seed);

        // Dense oracle: every step applies the densified gradient.
        let mut dense_store = ParamStore::new();
        dense_store.insert("w", init.clone());
        let mut dense_opt = Adam::with_lr(0.05);
        for b in &batches {
            let g = b.to_dense(8);
            dense_opt.step(&mut dense_store, "w", &g);
        }

        // Sparse path: lazy row updates, flushed at the end.
        let mut sparse_store = ParamStore::new();
        sparse_store.insert("w", init);
        let mut sparse_opt = Adam::with_lr(0.05);
        for b in &batches {
            sparse_opt.step_sparse(&mut sparse_store, "w", b);
        }
        sparse_opt.flush(&mut sparse_store);
        assert_eq!(sparse_opt.pending_rows("w"), 0);

        assert_eq!(
            bits(dense_store.get("w").as_slice()),
            bits(sparse_store.get("w").as_slice()),
            "lazy sparse Adam diverged from the dense trajectory"
        );
    }

    #[test]
    fn refresh_rows_brings_read_rows_current() {
        let mut seed = 99u64;
        let init = random_tensor(4, 2, &mut seed);
        let mut dense_store = ParamStore::new();
        dense_store.insert("w", init.clone());
        let mut dense_opt = Adam::with_lr(0.1);
        let mut sparse_store = ParamStore::new();
        sparse_store.insert("w", init);
        let mut sparse_opt = Adam::with_lr(0.1);

        // Step 1 touches row 0 only; row 2 lags in the sparse store.
        let mut g = SparseGrad::new(2);
        g.add_row(0, &[1.0, -1.0]);
        dense_opt.step(&mut dense_store, "w", &g.to_dense(4));
        sparse_opt.step_sparse(&mut sparse_store, "w", &g);
        // Step 2 touches rows 0 and 2; refresh row 2 before "reading" it.
        let mut g2 = SparseGrad::new(2);
        g2.add_row(0, &[0.5, 0.5]);
        g2.add_row(2, &[-2.0, 1.0]);
        sparse_opt.refresh_rows(&mut sparse_store, "w", &[0, 2]);
        assert_eq!(
            bits(sparse_store.get("w").row(2)),
            bits(dense_store.get("w").row(2)),
            "refreshed row must equal the dense trajectory"
        );
        dense_opt.step(&mut dense_store, "w", &g2.to_dense(4));
        sparse_opt.step_sparse(&mut sparse_store, "w", &g2);
        sparse_opt.flush(&mut sparse_store);
        for r in 0..4 {
            let (d, s) = (dense_store.get("w").row(r), sparse_store.get("w").row(r));
            assert_eq!(bits(d), bits(s), "row {r}: dense={d:?} sparse={s:?}");
        }
    }

    /// The per-step scalar reference: the textbook recurrence with two
    /// `powi` per step and one call per replayed step, exactly the update
    /// the kernel replaced. `grad = None` is a zero-gradient step.
    fn reference_update(
        cfg: &AdamConfig,
        s: u64,
        p: &mut [f32],
        m: &mut [f32],
        v: &mut [f32],
        grad: Option<&[f32]>,
    ) {
        let (b1, b2) = (cfg.beta1, cfg.beta2);
        let bc1 = 1.0 - b1.powi(s as i32);
        let bc2 = 1.0 - b2.powi(s as i32);
        for i in 0..p.len() {
            let g = grad.map_or(0.0, |gr| gr[i]);
            m[i] = b1 * m[i] + (1.0 - b1) * g;
            v[i] = b2 * v[i] + (1.0 - b2) * g * g;
            let mh = m[i] / bc1;
            let vh = v[i] / bc2;
            p[i] -= cfg.lr * mh / (vh.sqrt() + cfg.eps);
        }
    }

    /// Reference catch-up over steps `(from, to]`, skipping rows whose
    /// moments are all zero.
    fn reference_catch_up(cfg: &AdamConfig, from: u64, to: u64, row: &mut [Vec<f32>; 3]) {
        let [p, m, v] = row;
        if m.iter().all(|x| *x == 0.0) && v.iter().all(|x| *x == 0.0) {
            return;
        }
        for s in (from + 1)..=to {
            reference_update(cfg, s, p, m, v, None);
        }
    }

    /// An optimizer whose single 2-row parameter `w` sits at step `t` with
    /// row 0 lagging at watermark `from` and row 1 current. Row 0's
    /// moments are random, or all equal to `zero` (`+0.0` or `-0.0`).
    fn lagged_state(
        d: usize,
        from: u64,
        t: u64,
        zero: Option<f32>,
        seed: &mut u64,
    ) -> (ParamStore, Adam, [Vec<f32>; 3]) {
        let p = random_tensor(2, d, seed);
        let mut m = random_tensor(2, d, seed);
        let mut v = random_tensor(2, d, seed).map(f32::abs);
        if let Some(z) = zero {
            m.row_mut(0).fill(z);
            v.row_mut(0).fill(z);
        }
        let row0 = [p.row(0).to_vec(), m.row(0).to_vec(), v.row(0).to_vec()];
        let mut store = ParamStore::new();
        store.insert("w", p);
        let mut opt = Adam::with_lr(0.03);
        opt.state.insert(
            "w".into(),
            AdamState {
                m,
                v,
                t,
                row_t: Some(vec![from, t]),
            },
        );
        (store, opt, row0)
    }

    fn row_bits(store: &ParamStore, opt: &Adam, r: usize) -> [Vec<u32>; 3] {
        let st = &opt.state["w"];
        [
            bits(store.get("w").row(r)),
            bits(st.m.row(r)),
            bits(st.v.row(r)),
        ]
    }

    #[test]
    fn kernel_replay_and_update_match_the_per_step_scalar_reference_bitwise() {
        let cfg = AdamConfig {
            lr: 0.03,
            ..AdamConfig::default()
        };
        let mut seed = 2024u64;
        for d in [1usize, 6, 8, 32, 33] {
            for lag in [1u64, 2, 7, 64, 200] {
                for zero in [None, Some(0.0), Some(-0.0)] {
                    let (from, t) = (3, 3 + lag);
                    let ctx = format!("d={d} lag={lag} zero moments={zero:?}");

                    // Catch-up alone (refresh before read).
                    let (mut store, mut opt, mut want) = lagged_state(d, from, t, zero, &mut seed);
                    opt.refresh_rows(&mut store, "w", &[0]);
                    reference_catch_up(&cfg, from, t, &mut want);
                    assert_eq!(
                        row_bits(&store, &opt, 0),
                        want.map(|x| bits(&x)),
                        "refresh {ctx}"
                    );

                    // Catch-up fused with the next gradient step.
                    let (mut store, mut opt, mut want) = lagged_state(d, from, t, zero, &mut seed);
                    let g: Vec<f32> = (0..d).map(|_| prand(&mut seed)).collect();
                    let mut sg = SparseGrad::new(d);
                    sg.add_row(0, &g);
                    opt.step_sparse(&mut store, "w", &sg);
                    reference_catch_up(&cfg, from, t, &mut want);
                    let [p, m, v] = &mut want;
                    reference_update(&cfg, t + 1, p, m, v, Some(&g));
                    assert_eq!(
                        row_bits(&store, &opt, 0),
                        want.map(|x| bits(&x)),
                        "step {ctx}"
                    );
                }
            }

            // The dense step over a whole `3 × d` tensor.
            let mut store = ParamStore::new();
            store.insert("w", random_tensor(3, d, &mut seed));
            let mut want = store.get("w").as_slice().to_vec();
            let (mut m, mut v) = (vec![0.0; 3 * d], vec![0.0; 3 * d]);
            let mut opt = Adam::new(cfg);
            for s in 1..=5u64 {
                let g = random_tensor(3, d, &mut seed);
                opt.step(&mut store, "w", &g);
                reference_update(&cfg, s, &mut want, &mut m, &mut v, Some(g.as_slice()));
            }
            assert_eq!(bits(store.get("w").as_slice()), bits(&want), "dense d={d}");
        }
    }

    #[test]
    fn dense_step_flushes_pending_lazy_rows_first() {
        let mut seed = 3u64;
        let init = random_tensor(3, 2, &mut seed);
        let mut a_store = ParamStore::new();
        a_store.insert("w", init.clone());
        let mut a_opt = Adam::with_lr(0.1);
        let mut b_store = ParamStore::new();
        b_store.insert("w", init);
        let mut b_opt = Adam::with_lr(0.1);

        let mut sg = SparseGrad::new(2);
        sg.add_row(1, &[1.0, 2.0]);
        let dense_follow = Tensor::from_rows(&[&[0.1, 0.1], &[0.0, -0.3], &[0.2, 0.0]]);

        // Path A: sparse then dense (interleaved).
        a_opt.step_sparse(&mut a_store, "w", &sg);
        a_opt.step(&mut a_store, "w", &dense_follow);
        // Path B: both steps dense (the oracle).
        b_opt.step(&mut b_store, "w", &sg.to_dense(3));
        b_opt.step(&mut b_store, "w", &dense_follow);

        for (x, y) in a_store
            .get("w")
            .as_slice()
            .iter()
            .zip(b_store.get("w").as_slice())
        {
            assert!((x - y).abs() <= 1e-6, "interleaved {x} vs dense {y}");
        }
    }

    #[test]
    fn sgd_sparse_step_touches_only_given_rows() {
        let mut store = ParamStore::new();
        store.insert("w", Tensor::full(3, 2, 1.0));
        let mut opt = Sgd::new(0.5);
        let mut g = SparseGrad::new(2);
        g.add_row(1, &[1.0, 2.0]);
        opt.step_sparse(&mut store, "w", &g);
        assert_eq!(store.get("w").row(0), &[1.0, 1.0]);
        assert_eq!(store.get("w").row(1), &[0.5, 0.0]);
        assert_eq!(store.get("w").row(2), &[1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "unknown parameter")]
    fn unknown_parameter_panics() {
        let store = ParamStore::new();
        let _ = store.get("missing");
    }

    #[test]
    fn num_scalars_counts_all() {
        let mut store = ParamStore::new();
        store.insert("m", Tensor::zeros(3, 4));
        store.insert("v", Tensor::zeros(1, 5));
        assert_eq!(store.num_scalars(), 17);
        assert_eq!(store.len(), 2);
        assert!(store.contains("m"));
        assert!(!store.contains("w"));
    }
}
