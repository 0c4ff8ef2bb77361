//! Spherical k-means: the coarse quantizer behind [`crate::IvfIndex`].
//!
//! Input rows are unit (or zero) vectors, so "nearest centroid" means
//! *highest dot product* and the centroid of a cluster is the normalized
//! mean of its members — classic spherical k-means. The implementation is
//! built for the offline, deterministic setting of this workspace:
//!
//! * **k-means++-style seeding** from the vendored [`rand`] shim: the
//!   first centroid is uniform, each further centroid is sampled with
//!   probability proportional to its angular distance `1 − max_sim` to
//!   the centroids chosen so far — spreading seeds across the sphere so
//!   Lloyd starts near a good partition;
//! * **parallel Lloyd iterations**: the assignment step (the `n·k·d` hot
//!   loop) shards over [`daakg_parallel::par_map_ranges`], returning
//!   shard results in range order so the outcome is identical at any
//!   thread count; the `k·d`-sized update step stays sequential;
//! * **empty-cluster re-seeding**: a cluster that loses all members (or
//!   collapses to a zero mean) is re-seeded onto the currently
//!   worst-fitting vector, and a final repair pass after the last
//!   assignment guarantees no empty cluster survives whenever `n ≥ k`.
//!
//! The returned assignment satisfies the *nearest-centroid invariant*
//! exactly: every vector's similarity to its assigned centroid is `≥`
//! its similarity to every other centroid (the final repair rounds end
//! with a strict-improvement reassignment against the repaired
//! centroids, so no vector is left pointing at a stale cluster).

use daakg_autograd::tensor::dot_unrolled as dot;
use daakg_autograd::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// The result of one spherical k-means run.
#[derive(Debug, Clone)]
pub struct KMeans {
    /// `k × d` centroid matrix; every row is unit-norm or exactly zero
    /// (a cluster seeded from a degenerate zero vector).
    pub centroids: Tensor,
    /// `assignments[i]` is the centroid row vector `i` belongs to.
    pub assignments: Vec<u32>,
    /// Lloyd iterations actually run (stops early on a fixed point).
    pub iterations: usize,
}

/// Assign every vector to its most-similar centroid (ties to the lowest
/// centroid index), sharded across worker threads. Returns
/// `(assignment, similarity)` per vector, in vector order.
fn assign(data: &Tensor, rows: Range<usize>, centroids: &Tensor) -> Vec<(u32, f32)> {
    let n = rows.len();
    let k = centroids.rows();
    let shards = daakg_parallel::num_threads();
    let mut out = Vec::with_capacity(n);
    for shard in daakg_parallel::par_map_ranges(n, shards, |range| {
        let mut local = Vec::with_capacity(range.len());
        for i in range {
            let row = data.row(rows.start + i);
            let mut best = 0u32;
            let mut best_sim = f32::NEG_INFINITY;
            for c in 0..k {
                let s = dot(row, centroids.row(c));
                // Strict `>` keeps the first (lowest-index) centroid on
                // exact ties, making assignment deterministic.
                if s > best_sim {
                    best_sim = s;
                    best = c as u32;
                }
            }
            local.push((best, best_sim));
        }
        local
    }) {
        out.extend(shard);
    }
    out
}

/// k-means++-style seeding: centroid 0 is a uniform draw; every further
/// centroid is drawn with probability proportional to the angular
/// distance `(1 − max_sim).max(0)` to the centroids picked so far.
fn seed_centroids(data: &Tensor, rows: Range<usize>, k: usize, rng: &mut StdRng) -> Tensor {
    let (n, d, row) = (rows.len(), data.cols(), |i: usize| data.row(rows.start + i));
    let mut centroids = Tensor::zeros(k, d);
    let first = rng.gen_range(0..n);
    centroids.row_mut(0).copy_from_slice(row(first));
    // best_sim[i] = max similarity of vector i to any chosen centroid.
    let mut best_sim: Vec<f32> = (0..n).map(|i| dot(row(i), row(first))).collect();
    for c in 1..k {
        let total: f64 = best_sim.iter().map(|&s| (1.0 - s).max(0.0) as f64).sum();
        let pick = if total > 1e-12 {
            let mut target = rng.gen_range(0.0..total);
            let mut pick = n - 1;
            for (i, &s) in best_sim.iter().enumerate() {
                target -= (1.0 - s).max(0.0) as f64;
                if target <= 0.0 {
                    pick = i;
                    break;
                }
            }
            pick
        } else {
            // Everything already coincides with a centroid (duplicate-heavy
            // corpus): fall back to uniform draws.
            rng.gen_range(0..n)
        };
        centroids.row_mut(c).copy_from_slice(row(pick));
        for (i, s) in best_sim.iter_mut().enumerate() {
            *s = s.max(dot(row(i), row(pick)));
        }
    }
    centroids
}

/// Re-seed every cluster in `empties` onto the currently worst-fitting
/// vector (lowest similarity to its assigned centroid), one vector per
/// cluster, skipping vectors already used.
fn reseed_empties<'a>(
    centroids: &mut Tensor,
    row: impl Fn(usize) -> &'a [f32],
    assigned: &[(u32, f32)],
    empties: &[usize],
) {
    if empties.is_empty() {
        return;
    }
    // Vectors ordered worst-fit-first; stable under exact ties by index.
    let mut order: Vec<u32> = (0..assigned.len() as u32).collect();
    order.sort_by(|&a, &b| {
        assigned[a as usize]
            .1
            .total_cmp(&assigned[b as usize].1)
            .then(a.cmp(&b))
    });
    for (slot, &cluster) in empties.iter().enumerate() {
        let v = order[slot.min(order.len() - 1)] as usize;
        centroids.row_mut(cluster).copy_from_slice(row(v));
    }
}

/// Run spherical k-means over rows `rows` of row-normalized `data`, read
/// in place (rows must be unit-norm or zero, see
/// [`crate::scan::normalize_rows_cosine`]).
///
/// `k` is clamped to `1..=n`; `iters` Lloyd iterations at most, with
/// early exit on a fixed point. Fully deterministic for a given `seed`
/// and independent of the worker-thread count.
pub fn spherical_kmeans(
    data: &Tensor,
    rows: Range<usize>,
    k: usize,
    iters: usize,
    seed: u64,
) -> KMeans {
    let (n, d, row) = (rows.len(), data.cols(), |i: usize| data.row(rows.start + i));
    if n == 0 {
        return KMeans {
            centroids: Tensor::zeros(0, d),
            assignments: Vec::new(),
            iterations: 0,
        };
    }
    let k = k.clamp(1, n);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut centroids = seed_centroids(data, rows.clone(), k, &mut rng);

    let mut assigned = assign(data, rows.clone(), &centroids);
    let mut iterations = 0;
    for _ in 0..iters.max(1) {
        iterations += 1;
        // Update: normalized per-cluster mean (spherical M-step).
        let mut sums = Tensor::zeros(k, d);
        let mut counts = vec![0usize; k];
        for (i, &(c, _)) in assigned.iter().enumerate() {
            sums.row_mut(c as usize)
                .iter_mut()
                .zip(row(i))
                .for_each(|(s, &x)| *s += x);
            counts[c as usize] += 1;
        }
        let mut empties = Vec::new();
        for (c, &count) in counts.iter().enumerate() {
            let row = sums.row(c);
            let sq: f32 = row.iter().map(|x| x * x).sum();
            if count == 0 || sq <= f32::EPSILON {
                // Lost all members, or a cluster of only zero vectors:
                // leave the slot for re-seeding below.
                empties.push(c);
            } else {
                let inv = 1.0 / sq.sqrt();
                centroids
                    .row_mut(c)
                    .iter_mut()
                    .zip(row)
                    .for_each(|(o, &x)| *o = x * inv);
            }
        }
        reseed_empties(&mut centroids, row, &assigned, &empties);

        let next = assign(data, rows.clone(), &centroids);
        let converged = empties.is_empty() && next == assigned;
        assigned = next;
        if converged {
            break;
        }
    }

    // Final repair: no empty cluster may survive (possible with
    // duplicate-heavy data where two centroids coincide and ties always
    // fall to the lower index). Each round steals the worst-fitting
    // vector from a cluster that still has more than one member,
    // installs it as the empty cluster's centroid, and then applies a
    // *strict-improvement* reassignment (ties keep the current cluster,
    // so every stolen vector sticks to its new centroid at `sim = 1`,
    // the global maximum). Installing a new centroid can attract other
    // vectors away — possibly emptying *their* cluster — hence the loop:
    // every round permanently fills at least one more cluster with a
    // sticky stolen vector, so `k` rounds bound it, and at exit the
    // nearest-centroid invariant holds exactly for every vector.
    for _round in 0..=k {
        let mut counts = vec![0usize; k];
        for &(c, _) in &assigned {
            counts[c as usize] += 1;
        }
        if counts.iter().all(|&c| c > 0) {
            break;
        }
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by(|&a, &b| {
            assigned[a as usize]
                .1
                .total_cmp(&assigned[b as usize].1)
                .then(a.cmp(&b))
        });
        for c in 0..k {
            if counts[c] > 0 {
                continue;
            }
            if let Some(&v) = order
                .iter()
                .find(|&&v| counts[assigned[v as usize].0 as usize] > 1)
            {
                let v = v as usize;
                counts[assigned[v].0 as usize] -= 1;
                counts[c] += 1;
                centroids.row_mut(c).copy_from_slice(row(v));
                assigned[v] = (c as u32, dot(row(v), centroids.row(c)));
            }
        }
        // Strict-improvement reassignment against the repaired centroids
        // (recomputing the current similarity too — the vector's own
        // centroid may just have been replaced).
        for (i, slot) in assigned.iter_mut().enumerate() {
            let x = row(i);
            let mut best = slot.0;
            let mut best_sim = dot(x, centroids.row(slot.0 as usize));
            for c in 0..k {
                let s = dot(x, centroids.row(c));
                if s > best_sim {
                    best_sim = s;
                    best = c as u32;
                }
            }
            *slot = (best, best_sim);
        }
    }

    KMeans {
        centroids,
        assignments: assigned.into_iter().map(|(c, _)| c).collect(),
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::normalize_rows_cosine;

    fn random_unit_matrix(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect();
        let mut t = Tensor::from_vec(rows, cols, data);
        normalize_rows_cosine(&mut t);
        t
    }

    /// The two invariants the IVF build relies on.
    fn check_invariants(data: &Tensor, km: &KMeans) {
        let k = km.centroids.rows();
        let mut counts = vec![0usize; k];
        for (i, &c) in km.assignments.iter().enumerate() {
            counts[c as usize] += 1;
            let own = dot(data.row(i), km.centroids.row(c as usize));
            let best = (0..k)
                .map(|j| dot(data.row(i), km.centroids.row(j)))
                .fold(f32::NEG_INFINITY, f32::max);
            assert!(
                own >= best - 1e-5,
                "vector {i}: assigned sim {own} but best is {best}"
            );
        }
        if data.rows() >= k {
            assert!(
                counts.iter().all(|&c| c > 0),
                "empty cluster survived: {counts:?}"
            );
        }
    }

    #[test]
    fn invariants_hold_on_random_data() {
        for (n, k, seed) in [(50usize, 4usize, 1u64), (200, 16, 2), (33, 8, 3)] {
            let data = random_unit_matrix(n, 12, seed);
            let km = spherical_kmeans(&data, 0..data.rows(), k, 12, seed);
            assert_eq!(km.assignments.len(), n);
            assert_eq!(km.centroids.rows(), k);
            assert!(km.iterations >= 1);
            check_invariants(&data, &km);
        }
    }

    #[test]
    fn invariants_hold_with_heavy_duplicates() {
        // 3 distinct unit rows repeated 20× each, k = 5: more clusters
        // than distinct points forces re-seeding onto duplicates; the
        // repair pass must still leave no cluster empty.
        let base = random_unit_matrix(3, 8, 7);
        let rows: Vec<&[f32]> = (0..60).map(|i| base.row(i % 3)).collect();
        let data = Tensor::from_rows(&rows);
        let km = spherical_kmeans(&data, 0..data.rows(), 5, 10, 7);
        check_invariants(&data, &km);
    }

    #[test]
    fn repair_keeps_invariant_when_new_centroids_attract_neighbors() {
        // Noisy near-duplicates of a few base directions with k larger
        // than the number of natural clusters: centroids coincide, the
        // repair loop must both fill every cluster AND leave no vector
        // pointing at a stale cluster after a repaired centroid lands
        // near it (the strict-improvement reassignment).
        let mut rng = StdRng::seed_from_u64(31);
        let base = random_unit_matrix(4, 8, 31);
        let mut rows = Tensor::zeros(48, 8);
        for i in 0..48 {
            let b = base.row(i % 4);
            let row = rows.row_mut(i);
            for (o, &v) in row.iter_mut().zip(b) {
                *o = v + 0.01 * rng.gen_range(-1.0f32..1.0);
            }
        }
        normalize_rows_cosine(&mut rows);
        for k in [6usize, 10, 16] {
            let km = spherical_kmeans(&rows, 0..rows.rows(), k, 8, 31);
            check_invariants(&rows, &km);
        }
    }

    #[test]
    fn zero_rows_are_tolerated() {
        let mut data = random_unit_matrix(20, 6, 9);
        data.row_mut(3).fill(0.0);
        data.row_mut(11).fill(0.0);
        let km = spherical_kmeans(&data, 0..data.rows(), 4, 8, 9);
        assert_eq!(km.assignments.len(), 20);
        check_invariants(&data, &km);
    }

    #[test]
    fn k_is_clamped_and_empty_input_is_fine() {
        let data = random_unit_matrix(5, 4, 1);
        let km = spherical_kmeans(&data, 0..data.rows(), 100, 5, 1);
        assert_eq!(km.centroids.rows(), 5, "k clamps to n");
        check_invariants(&data, &km);
        let empty = Tensor::zeros(0, 4);
        let km = spherical_kmeans(&empty, 0..empty.rows(), 3, 5, 1);
        assert!(km.assignments.is_empty());
        assert_eq!(km.centroids.rows(), 0);
    }

    #[test]
    fn deterministic_for_a_seed() {
        let data = random_unit_matrix(120, 10, 4);
        let a = spherical_kmeans(&data, 0..data.rows(), 8, 10, 4);
        let b = spherical_kmeans(&data, 0..data.rows(), 8, 10, 4);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.centroids.as_slice(), b.centroids.as_slice());
    }
}
