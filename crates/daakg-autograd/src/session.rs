//! A training session binding tape leaves to named parameters.
//!
//! Models pull parameters onto the tape with [`TapeSession::param`]; after
//! `backward`, [`TapeSession::step`] walks the recorded bindings and hands
//! each parameter's gradient to the optimizer. Repeated `param` calls for
//! the same name return the same node, so gradients from different parts of
//! the model accumulate correctly.

use crate::graph::{Graph, Var};
use crate::optim::{Optimizer, ParamStore};
use crate::sparse::SparseGrad;
use crate::tensor::Tensor;
use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};

/// Named gradients extracted from a finished tape: dense gradients of
/// bound leaf parameters plus sparse row-gradients of externally gathered
/// parameters. Produced by [`TapeSession::take_grads`], mergeable across
/// parallel batch shards with [`NamedGrads::merge`], and applied in one
/// optimizer step per parameter by [`NamedGrads::apply`].
#[derive(Default)]
pub struct NamedGrads {
    /// Dense `(name, gradient)` pairs from bound leaves.
    pub dense: Vec<(String, Tensor)>,
    /// Sparse `(name, row-gradient)` pairs from external gathers.
    pub sparse: Vec<(String, SparseGrad)>,
}

impl NamedGrads {
    /// Merge another shard's gradients into this one (entry-wise sum).
    pub fn merge(&mut self, other: NamedGrads) {
        for (name, grad) in other.dense {
            match self.dense.iter_mut().find(|(n, _)| *n == name) {
                Some((_, g)) => g.add_assign(&grad),
                None => self.dense.push((name, grad)),
            }
        }
        for (name, grad) in other.sparse {
            match self.sparse.iter_mut().find(|(n, _)| *n == name) {
                Some((_, g)) => g.merge(&grad),
                None => self.sparse.push((name, grad)),
            }
        }
    }

    /// Apply one optimizer step per parameter. A parameter with both a
    /// dense and a sparse contribution takes a single dense step over the
    /// combined gradient (two separate steps would double-count the
    /// optimizer's step count). Returns the number of parameters updated.
    pub fn apply(mut self, store: &mut ParamStore, opt: &mut dyn Optimizer) -> usize {
        let mut updated = 0;
        for (name, mut grad) in self.dense.drain(..) {
            if let Some(i) = self.sparse.iter().position(|(n, _)| *n == name) {
                let (_, sg) = self.sparse.swap_remove(i);
                sg.add_into_dense(&mut grad);
            }
            opt.step(store, &name, &grad);
            updated += 1;
        }
        for (name, grad) in self.sparse {
            opt.step_sparse(store, &name, &grad);
            updated += 1;
        }
        updated
    }
}

/// A [`Graph`] plus the name → leaf bindings of the parameters in use.
#[derive(Default)]
pub struct TapeSession {
    /// The underlying tape (also reachable through `Deref`).
    pub graph: Graph,
    bindings: BTreeMap<String, Var>,
}

impl TapeSession {
    /// A fresh session with an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind the named parameter from `store` onto the tape, returning its
    /// leaf. Subsequent calls with the same name return the cached leaf.
    pub fn param(&mut self, store: &ParamStore, name: &str) -> Var {
        if let Some(&v) = self.bindings.get(name) {
            return v;
        }
        let v = self.graph.leaf(store.get(name).clone());
        self.bindings.insert(name.to_owned(), v);
        v
    }

    /// Gather rows of the named parameter **without** binding the whole
    /// table onto the tape: the forward copies only the requested rows and
    /// the backward accumulates a [`SparseGrad`] over them. This is the
    /// sparse-training fast path; see [`Graph::gather_external`].
    pub fn gather_param(&mut self, store: &ParamStore, name: &str, indices: &[u32]) -> Var {
        self.graph.gather_external(name, store.get(name), indices)
    }

    /// Run backward from `loss` (delegates to [`Graph::backward`]).
    pub fn backward(&mut self, loss: Var) {
        self.graph.backward(loss);
    }

    /// Extract every named gradient this tape accumulated — dense for
    /// bound leaves, sparse for external gathers — leaving the tape
    /// re-runnable. Used by the parallel trainers to merge shard gradients
    /// before one optimizer step.
    pub fn take_grads(&mut self) -> NamedGrads {
        let mut out = NamedGrads {
            dense: Vec::new(),
            sparse: self.graph.take_external_grads(),
        };
        for (name, &var) in &self.bindings {
            if let Some(grad) = self.graph.grad(var) {
                out.dense.push((name.clone(), grad.clone()));
            }
        }
        out
    }

    /// Apply one optimizer step for every parameter that received a
    /// gradient — dense steps for bound leaves, sparse steps for external
    /// gathers (a parameter with both takes one combined dense step).
    /// Returns the number of parameters updated.
    pub fn step(&mut self, store: &mut ParamStore, opt: &mut dyn Optimizer) -> usize {
        let mut updated = 0;
        let mut sparse = self.graph.take_external_grads();
        for (name, &var) in &self.bindings {
            if let Some(grad) = self.graph.grad(var) {
                if let Some(i) = sparse.iter().position(|(n, _)| n == name) {
                    let (_, sg) = sparse.swap_remove(i);
                    let mut combined = grad.clone();
                    sg.add_into_dense(&mut combined);
                    opt.step(store, name, &combined);
                } else {
                    opt.step(store, name, grad);
                }
                updated += 1;
            }
        }
        for (name, sg) in sparse {
            opt.step_sparse(store, &name, &sg);
            updated += 1;
        }
        updated
    }
}

impl Deref for TapeSession {
    type Target = Graph;
    fn deref(&self) -> &Graph {
        &self.graph
    }
}

impl DerefMut for TapeSession {
    fn deref_mut(&mut self) -> &mut Graph {
        &mut self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Sgd;
    use crate::tensor::Tensor;

    #[test]
    fn param_is_cached_per_name() {
        let mut store = ParamStore::new();
        store.insert("w", Tensor::scalar(1.0));
        let mut s = TapeSession::new();
        let a = s.param(&store, "w");
        let b = s.param(&store, "w");
        assert_eq!(a, b);
    }

    #[test]
    fn step_updates_only_touched_params() {
        let mut store = ParamStore::new();
        store.insert("w", Tensor::scalar(2.0));
        store.insert("unused", Tensor::scalar(5.0));
        let mut s = TapeSession::new();
        let w = s.param(&store, "w");
        let _unused = s.param(&store, "unused");
        let sq = s.graph.mul(w, w);
        let loss = s.graph.sum_all(sq);
        s.backward(loss);
        let mut opt = Sgd::new(0.1);
        let updated = s.step(&mut store, &mut opt);
        assert_eq!(updated, 1); // "unused" got no gradient
                                // w ← 2 − 0.1·(2·2) = 1.6
        assert!((store.get("w").item() - 1.6).abs() < 1e-6);
        assert_eq!(store.get("unused").item(), 5.0);
    }

    #[test]
    fn shared_param_accumulates_gradients() {
        let mut store = ParamStore::new();
        store.insert("w", Tensor::scalar(3.0));
        let mut s = TapeSession::new();
        let w1 = s.param(&store, "w");
        let w2 = s.param(&store, "w");
        let sum = s.graph.add(w1, w2); // 2w
        let loss = s.graph.sum_all(sum);
        s.backward(loss);
        let mut opt = Sgd::new(1.0);
        s.step(&mut store, &mut opt);
        // gradient is 2 (both uses), w ← 3 − 2 = 1
        assert!((store.get("w").item() - 1.0).abs() < 1e-6);
    }
}
