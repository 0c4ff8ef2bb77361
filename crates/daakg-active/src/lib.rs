//! # daakg-active
//!
//! Deep *active* alignment: the subsystem that decides which element
//! pairs to put to a human annotator so that each answer unlocks the most
//! alignment progress, then drives the select → label → infer → retrain
//! loop against the joint model.
//!
//! * [`Oracle`] / [`GoldOracle`] — the annotator abstraction and the
//!   simulated gold-standard annotator of the paper's experiments,
//! * [`Candidate`] / [`generate_candidates`] — the question pool, built
//!   with one batched top-k sweep over the current snapshot,
//! * [`Strategy`] / [`select_batch`] — inference-power greedy selection
//!   (with uncertainty tie-breaking) plus the margin-uncertainty and
//!   random baselines,
//! * [`ActiveLoop`] — the round driver, emitting an annotation
//!   [`CostCurve`](daakg_eval::CostCurve) (H@1 / MRR vs. questions asked).
//!   The entry point is
//!   [`run_service`](ActiveLoop::run_service), which drives an
//!   [`AlignmentService`](daakg_align::AlignmentService) so each round's
//!   retrain publishes a fresh snapshot version to concurrent readers.

#![forbid(unsafe_code)]

pub mod driver;
pub mod oracle;
pub mod select;

pub use driver::{evaluate_snapshot, ActiveConfig, ActiveLoop};
pub use oracle::{GoldOracle, Oracle};
pub use select::{generate_candidates, select_batch, Candidate, PowerContext, Strategy};
