//! # daakg-autograd
//!
//! A minimal, dependency-light reverse-mode automatic-differentiation engine
//! used as the deep-learning substrate of the DAAKG reproduction.
//!
//! The paper trains small models — embedding tables, feed-forward networks,
//! mapping matrices, a composition-based GNN — with margin / softmax / focal
//! losses. Rather than binding a GPU framework (the repro brief notes the
//! Rust GNN ecosystem is immature), this crate implements exactly the tensor
//! machinery those models need:
//!
//! * [`Tensor`]: a dense, row-major `f32` matrix (vectors are `1×d`),
//! * [`Graph`]: a tape of operations supporting [`Graph::backward`],
//! * gather/scatter ops so embedding-table updates stay sparse-friendly,
//! * [`sparse`]: [`SparseGrad`] row-gradients plus
//!   [`Graph::gather_external`], so a mini-batch backward touches only the
//!   sampled embedding rows instead of materializing table-sized tensors,
//! * [`optim`]: SGD and Adam over a named [`ParamStore`], including lazy
//!   sparse Adam with deferred-decay semantics that reproduce the dense
//!   trajectory exactly (see the [`Adam`] docs for the contract),
//! * [`grad_check`]: central finite-difference gradient verification used by
//!   the property-based test-suite.
//!
//! # Example
//!
//! ```
//! use daakg_autograd::{Graph, Tensor};
//!
//! let mut g = Graph::new();
//! let x = g.leaf(Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
//! let w = g.leaf(Tensor::from_rows(&[&[0.5], &[-0.5]]));
//! let y = g.matmul(x, w);
//! let loss = g.sum_all(y);
//! g.backward(loss);
//! let gw = g.grad(w).unwrap();
//! assert_eq!(gw.as_slice(), &[4.0, 6.0]); // column sums of x
//! ```

pub mod grad_check;
pub mod graph;
pub mod init;
pub mod optim;
pub mod session;
pub mod sparse;
pub mod tensor;

pub use graph::{Graph, Var};
pub use optim::{unique_rows, Adam, AdamConfig, Optimizer, ParamStore, Sgd};
pub use session::{NamedGrads, TapeSession};
pub use sparse::SparseGrad;
pub use tensor::Tensor;
