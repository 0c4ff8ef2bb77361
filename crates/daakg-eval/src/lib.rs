//! # daakg-eval
//!
//! Evaluation metrics for KG alignment, matching Sect. 7.1 of the paper:
//!
//! * **Ranking metrics** ([`ranking`]): `H@k` (the proportion of true
//!   matches within the top-k nearest neighbours of each element; `H@1` is
//!   accuracy) and Mean Reciprocal Rank (MRR).
//! * **Set metrics** ([`matching`]): precision, recall and F1-score computed
//!   with the *greedy matching strategy* of Leone et al. (2022), which
//!   resolves the 1:1 restriction globally by similarity order.
//! * **Cost curves** ([`cost`]): annotation-budget curves (`H@1` / MRR vs.
//!   questions asked) produced by the active-learning loop, with the
//!   equal-budget AUC comparison of Sect. 7.4.
//! * **Report helpers** ([`report`]): fixed-width text tables used by the
//!   experiment binaries to print paper-style rows.

#![forbid(unsafe_code)]

pub mod cost;
pub mod matching;
pub mod ranking;
pub mod report;

pub use cost::{CostCurve, CostPoint};
pub use matching::{greedy_matching, MatchingScores};
pub use ranking::{hits_at_k, mean_reciprocal_rank, RankingScores};
pub use report::TextTable;
