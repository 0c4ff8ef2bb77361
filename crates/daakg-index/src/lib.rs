//! # daakg-index
//!
//! Approximate nearest-neighbor serving for the DAAKG workspace: an
//! inverted-file (IVF) index that turns the `O(n·d)` exhaustive top-k
//! scan into an `nprobe / nlist` fraction of the corpus with a tunable
//! recall/speed trade-off — the standard production pattern for embedding
//! serving at scale.
//!
//! * [`scan`] — the shared candidate-scan machinery: the bounded
//!   [`scan::TopKSelector`], the register-tiled, column-blocked
//!   [`scan::scan_block`] kernel (4 queries × 16 candidates; 1 × 64,
//!   2 × 32 or 3 × 16 for 1–3 tail queries; one vector compare rejects a
//!   tile row) with runtime AVX2+FMA dispatch, and the cosine-convention
//!   row normalization. `daakg_align::BatchedSimilarity` (the exhaustive
//!   oracle) runs on exactly this kernel, which is what makes full-probe
//!   IVF searches bitwise comparable to it.
//! * [`kmeans`] — the coarse quantizer: k-means++-seeded spherical
//!   k-means with parallel Lloyd iterations and empty-cluster re-seeding.
//! * [`ivf`] — [`IvfIndex`]: contiguous centroid-major inverted lists
//!   over normalized embeddings, built once per published snapshot,
//!   served lock-free ([`IvfIndex::search`] / [`IvfIndex::search_batch`]).
//! * [`persist`] — the `daakg-store` codec: every slab of a built index
//!   round-trips bitwise through the checksummed section format
//!   ([`IvfIndex::to_bytes`] / [`IvfIndex::from_bytes`]), so persisted
//!   indexes search identically to the ones they were saved from.
//!
//! [`QueryMode`] is the serving-layer switch consumed by
//! `daakg_align::AlignmentService` and the `daakg::Pipeline` builder:
//! `Exact` keeps the exhaustive scan (the default — existing behavior and
//! every oracle untouched), `Approx { nprobe }` routes queries through
//! the snapshot's index. [`QueryOptions`] bundles the mode with the
//! result bound `k` into the one options struct every serving-layer query
//! entry point (`daakg_align::QueryExecutor`) accepts.

pub mod ivf;
pub mod kmeans;
pub mod persist;
pub mod scan;

pub use ivf::{IvfConfig, IvfIndex, SearchSpans};
pub use kmeans::{spherical_kmeans, KMeans};
pub use scan::{normalize_rows_cosine, scan_block, top_k_of_scores, TopKSelector};

/// How a serving-layer query is executed.
///
/// The default is [`QueryMode::Exact`]: the exhaustive batched scan, with
/// results identical to the pre-index system. [`QueryMode::Approx`] scans
/// only the `nprobe` most-similar inverted lists of the snapshot's
/// [`IvfIndex`] — sublinear in the corpus size, returning exact cosine
/// scores over the probed candidates; at `nprobe == nlist` it reproduces
/// the exact result set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryMode {
    /// Exhaustive scan over every candidate (the default).
    #[default]
    Exact,
    /// IVF-approximate scan over the `nprobe` best inverted lists.
    Approx {
        /// Number of inverted lists to probe (`1..=nlist`; clamped high,
        /// rejected at 0 by the service layer).
        nprobe: usize,
    },
}

impl QueryMode {
    /// Validate the mode for a service whose index presence is known.
    pub fn validate(&self, has_index: bool) -> Result<(), daakg_graph::DaakgError> {
        match *self {
            QueryMode::Exact => Ok(()),
            QueryMode::Approx { nprobe } => {
                if nprobe == 0 {
                    Err(daakg_graph::DaakgError::invalid(
                        "QueryMode",
                        "Approx nprobe must be at least 1",
                    ))
                } else if !has_index {
                    Err(daakg_graph::DaakgError::invalid(
                        "QueryMode",
                        "Approx queries need an IVF index; configure one \
                         (e.g. Pipeline::index(nlist)) before using Approx mode",
                    ))
                } else {
                    Ok(())
                }
            }
        }
    }
}

/// The unified per-call query options consumed by the serving layer
/// (`daakg_align::QueryExecutor`): how many candidates to return and how
/// to execute the scan.
///
/// One struct replaces the old `rank`/`rank_with` + `top_k`/`top_k_with` +
/// `batch_top_k`/`batch_top_k_with` split: `k` selects between a bounded
/// top-k (`Some(k)`) and a full ranking (`None`), and [`QueryMode`] picks
/// exact or IVF-approximate execution. Build with the constructors and
/// chain the modifiers:
///
/// ```
/// use daakg_index::{QueryMode, QueryOptions};
///
/// let exact_top10 = QueryOptions::top_k(10);
/// let approx_top10 = QueryOptions::top_k(10).approx(4);
/// let full_ranking = QueryOptions::rank();
/// assert_eq!(approx_top10.mode, QueryMode::Approx { nprobe: 4 });
/// assert_eq!(full_ranking.k, None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryOptions {
    /// How many candidates to return, best first; `None` ranks every
    /// candidate the scan touches (all of them in `Exact` mode, the
    /// probed lists' candidates in `Approx` mode).
    pub k: Option<usize>,
    /// How the scan executes (exhaustive or IVF-approximate).
    pub mode: QueryMode,
    /// Optional per-query deadline, measured from submission. A query
    /// still queued when its deadline elapses is shed with
    /// `DaakgError::DeadlineExceeded` instead of burning kernel time on
    /// an answer nobody is waiting for. `None` (the default) never sheds.
    ///
    /// The deadline only bounds *queueing* delay — a query handed to the
    /// execution kernel runs to completion. A zero (or otherwise already
    /// elapsed) deadline is therefore shed at admission, a documented way
    /// to probe queue health without doing work. Deadlines do not affect
    /// batching: queries differing only in deadline still coalesce into
    /// one kernel dispatch.
    pub deadline: Option<std::time::Duration>,
}

impl Default for QueryOptions {
    fn default() -> Self {
        Self::rank()
    }
}

impl QueryOptions {
    /// Rank every candidate, exact (the default).
    pub fn rank() -> Self {
        Self {
            k: None,
            mode: QueryMode::Exact,
            deadline: None,
        }
    }

    /// Return the best `k` candidates, exact.
    pub fn top_k(k: usize) -> Self {
        Self {
            k: Some(k),
            mode: QueryMode::Exact,
            deadline: None,
        }
    }

    /// Replace the execution mode.
    pub fn with_mode(mut self, mode: QueryMode) -> Self {
        self.mode = mode;
        self
    }

    /// Execute through the IVF index, probing `nprobe` inverted lists.
    pub fn approx(mut self, nprobe: usize) -> Self {
        self.mode = QueryMode::Approx { nprobe };
        self
    }

    /// Attach a queueing deadline, measured from submission (see
    /// [`QueryOptions::deadline`]).
    pub fn with_deadline(mut self, deadline: std::time::Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Whether two queries may share one coherent kernel dispatch: equal
    /// in everything the *kernel* sees (`k` and `mode`). Deadlines are
    /// queueing metadata, not execution parameters, so queries differing
    /// only in deadline still coalesce.
    pub fn coalesces_with(&self, other: &Self) -> bool {
        self.k == other.k && self.mode == other.mode
    }

    /// Validate against a service whose index presence is known (see
    /// [`QueryMode::validate`]).
    pub fn validate(&self, has_index: bool) -> Result<(), daakg_graph::DaakgError> {
        self.mode.validate(has_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_options_constructors_compose() {
        assert_eq!(QueryOptions::default(), QueryOptions::rank());
        assert_eq!(QueryOptions::top_k(5).k, Some(5));
        assert_eq!(QueryOptions::top_k(5).mode, QueryMode::Exact);
        let opts = QueryOptions::rank().approx(3);
        assert_eq!(opts.k, None);
        assert_eq!(opts.mode, QueryMode::Approx { nprobe: 3 });
        assert_eq!(
            QueryOptions::top_k(2).with_mode(QueryMode::Exact),
            QueryOptions::top_k(2)
        );
        assert!(QueryOptions::top_k(2).validate(false).is_ok());
        assert!(QueryOptions::top_k(2).approx(1).validate(false).is_err());
        assert!(QueryOptions::top_k(2).approx(1).validate(true).is_ok());
        assert!(QueryOptions::top_k(2).approx(0).validate(true).is_err());
    }

    #[test]
    fn deadlines_are_queueing_metadata_not_kernel_parameters() {
        use std::time::Duration;
        let plain = QueryOptions::top_k(5);
        assert_eq!(plain.deadline, None);
        let tight = plain.with_deadline(Duration::from_millis(2));
        assert_eq!(tight.deadline, Some(Duration::from_millis(2)));
        // Differing deadlines still share a kernel dispatch...
        assert!(plain.coalesces_with(&tight));
        assert!(tight.coalesces_with(&plain));
        // ...but differing kernel parameters never do.
        assert!(!plain.coalesces_with(&QueryOptions::top_k(6)));
        assert!(!plain.coalesces_with(&QueryOptions::top_k(5).approx(2)));
        // The deadline participates in equality (it is real per-query
        // state), just not in coalescing.
        assert_ne!(plain, tight);
    }

    #[test]
    fn query_mode_defaults_to_exact_and_validates() {
        assert_eq!(QueryMode::default(), QueryMode::Exact);
        assert!(QueryMode::Exact.validate(false).is_ok());
        assert!(QueryMode::Approx { nprobe: 4 }.validate(true).is_ok());
        assert!(QueryMode::Approx { nprobe: 0 }.validate(true).is_err());
        assert!(QueryMode::Approx { nprobe: 4 }.validate(false).is_err());
    }
}
