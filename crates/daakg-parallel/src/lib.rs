//! # daakg-parallel
//!
//! Dependency-free fork-join parallelism on `std::thread::scope`, standing
//! in for rayon (the build environment is offline, so external crates
//! cannot be fetched). The API is deliberately small — [`join`], chunked
//! for-each, sharded map, and a parallel merge sort — because those are
//! the only shapes the DAAKG hot paths need: the two KGs' independent
//! embedding warm-ups, row-band matmul kernels, sharded mini-batch
//! gradients, per-query ranking evaluation, and the greedy-matching
//! pre-sort.
//!
//! # The worker budget
//!
//! Every thread carries a *worker budget*: how many threads the parallel
//! calls it makes may occupy. It starts at [`num_threads`]. The for-each,
//! map and sort entry points split their work into at most one part per
//! worker of the budget, run the first part on the calling thread and
//! each other part on a scoped thread of its own, so at a budget of 1
//! they are plain sequential code that spawns nothing. [`join`] runs two
//! closures concurrently and hands each side half of the caller's budget
//! (the left side keeps the odd worker): at a budget of 2, each side runs
//! every parallel call it makes in line on its own thread, so two
//! independent tasks share the machine without oversubscribing it. A
//! thread an entry point spawns starts with the full budget, like any
//! new thread.
//!
//! The budget sets only the *execution width*. Results never depend on
//! it: [`par_map_ranges`] shards by its caller's `parts` argument and
//! runs the shards in order within each worker, and the for-each and sort
//! entry points produce partition-independent output (matmul rows,
//! `par_map` slots, and a stable sort). Callers whose arithmetic depends
//! on a shard count pass one derived from [`num_threads`], which is the
//! same on every thread.
//!
//! A panic on a worker thread reaches the caller with its original
//! payload (re-raised with [`std::panic::resume_unwind`] once every
//! worker has finished), and the caller's budget is restored on unwind.

#![forbid(unsafe_code)]

use std::cell::Cell;
use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Number of worker threads to use.
///
/// Resolution order: the `DAAKG_THREADS` environment variable (clamped to
/// `1..=256`), then [`std::thread::available_parallelism`], then 1.
///
/// Resolved **once per process** and cached: this is consulted by every
/// parallel kernel invocation (every sufficiently large matmul), so it
/// must not re-take the env lock on the hot path. Consequently, changing
/// `DAAKG_THREADS` after the first parallel call has no effect. It is
/// the same on every thread, so it is the count to derive bit-fixing
/// shard counts from; the per-thread worker budget (see the crate docs)
/// starts at this value.
pub fn num_threads() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        if let Ok(v) = std::env::var("DAAKG_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                return n.clamp(1, 256);
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

thread_local! {
    /// This thread's worker budget; 0 means unset, i.e. [`num_threads`].
    static BUDGET: Cell<usize> = const { Cell::new(0) };
}

/// The calling thread's worker budget (see the crate docs).
fn width() -> usize {
    match BUDGET.with(Cell::get) {
        0 => num_threads(),
        w => w,
    }
}

/// Restores the budget it replaced when dropped, on unwind too.
struct BudgetGuard(usize);

impl Drop for BudgetGuard {
    fn drop(&mut self) {
        BUDGET.with(|b| b.set(self.0));
    }
}

/// Run `f` with the calling thread's budget set to `width`.
fn with_width<R>(width: usize, f: impl FnOnce() -> R) -> R {
    let _restore = BudgetGuard(BUDGET.with(|b| b.replace(width)));
    f()
}

/// Run `a` and `b` concurrently and return both results.
///
/// `a` runs on the calling thread with the larger half of the caller's
/// worker budget, `b` on one scoped thread with the smaller half; with a
/// budget of 1 they run one after the other on the calling thread. If
/// either panics, the panic reaches the caller with its original payload
/// after both sides have finished (`a`'s first when both panic), and the
/// caller's budget is restored.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    let width = width();
    if width <= 1 {
        return (a(), b());
    }
    let right = width / 2;
    std::thread::scope(|scope| {
        let handle = scope.spawn(move || with_width(right, b));
        // A panic in `a` unwinds through the scope, which joins `b` first
        // and then re-raises `a`'s payload.
        let ra = with_width(width - right, a);
        match handle.join() {
            Ok(rb) => (ra, rb),
            Err(payload) => resume_unwind(payload),
        }
    })
}

/// Run `tasks`, the first on the calling thread and each other on a
/// scoped thread of its own, and return their results in order. A
/// panicking task's payload reaches the caller once every task has
/// finished (the earliest panicking task's, when several do).
fn fork<T, R>(tasks: Vec<T>) -> Vec<R>
where
    T: FnOnce() -> R + Send,
    R: Send,
{
    let mut tasks = tasks.into_iter();
    let Some(first) = tasks.next() else {
        return Vec::new();
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = tasks.map(|task| scope.spawn(task)).collect();
        // A panic here unwinds through the scope, which joins the spawned
        // tasks first and then re-raises this payload.
        let mut out = vec![first()];
        for handle in handles {
            match handle.join() {
                Ok(r) => out.push(r),
                Err(payload) => resume_unwind(payload),
            }
        }
        out
    })
}

/// Split `len` items into at most `parts` contiguous ranges of near-equal
/// size (the first `len % parts` ranges get one extra item). Empty input
/// yields no ranges.
pub fn split_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    if len == 0 || parts == 0 {
        return Vec::new();
    }
    let parts = parts.min(len);
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

/// Run `f(range)` over a partition of `0..len` into one range per worker
/// of the budget. `f` must be `Sync` because several threads call it
/// concurrently on disjoint ranges.
pub fn par_ranges<F>(len: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    par_map_ranges(len, width(), f);
}

/// Mutable chunked for-each: split `data` into one contiguous chunk per
/// worker of the budget and run `f(chunk_start_index, chunk)` on each.
pub fn par_chunks_mut<T, F>(data: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    par_row_chunks_mut(data, 1, f);
}

/// Row-aligned mutable chunked for-each for flat row-major matrices:
/// `data.len()` must be a multiple of `row_len`; the matrix is split into
/// one near-equal *row band* per worker of the budget and
/// `f(first_row, band)` runs on each. This is the work distributor for
/// the blocked matmul kernels.
pub fn par_row_chunks_mut<T, F>(data: &mut [T], row_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(row_len > 0, "row_len must be positive");
    assert_eq!(data.len() % row_len, 0, "data not row-aligned");
    let rows = data.len() / row_len;
    let width = width();
    if width <= 1 || rows < 2 {
        if rows > 0 {
            f(0, data);
        }
        return;
    }
    let f = &f;
    let mut rest = data;
    let bands: Vec<_> = split_ranges(rows, width)
        .into_iter()
        .map(|r| {
            let (band, tail) = std::mem::take(&mut rest).split_at_mut(r.len() * row_len);
            rest = tail;
            move || f(r.start, band)
        })
        .collect();
    fork(bands);
}

/// Parallel index map: compute `f(i)` for `i` in `0..len` and collect the
/// results in order.
pub fn par_map<T, F>(len: usize, f: F) -> Vec<T>
where
    T: Send + Default + Clone,
    F: Fn(usize) -> T + Sync,
{
    let mut out = vec![T::default(); len];
    par_chunks_mut(&mut out, |start, chunk| {
        for (off, slot) in chunk.iter_mut().enumerate() {
            *slot = f(start + off);
        }
    });
    out
}

/// Parallel *sharded* map: split `0..len` into at most `parts` contiguous
/// ranges and compute `f(range)` for each, collecting the results in
/// range order. Unlike [`par_map`], the closure sees the whole shard at
/// once — this is the work distributor for sharded mini-batch gradient
/// computation, where each shard builds its own tape over shared
/// read-only parameters and returns that shard's gradients.
///
/// The shards are fixed by `parts` alone; the worker budget only decides
/// how many threads run them (each worker runs a contiguous group of
/// shards in order), so the results are the same at every budget. With
/// `parts <= 1`, `len < 2`, or a budget of 1, every shard runs in line.
pub fn par_map_ranges<R, F>(len: usize, parts: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let ranges = split_ranges(len, parts.max(1));
    let width = width().min(ranges.len());
    if width <= 1 {
        return ranges.into_iter().map(f).collect();
    }
    let (f, ranges) = (&f, &ranges);
    let groups: Vec<_> = split_ranges(ranges.len(), width)
        .into_iter()
        .map(|g| move || ranges[g].iter().cloned().map(f).collect::<Vec<R>>())
        .collect();
    fork(groups).into_iter().flatten().collect()
}

/// Parallel comparison sort: chunk-sort one chunk per worker of the
/// budget, then fold the sorted runs together with pairwise merges.
/// Falls back to `slice::sort_by` below the cutoff or at a budget of 1.
///
/// The merge is stable (left run wins ties), and chunks are contiguous, so
/// the overall sort is stable like `slice::sort_by`.
pub fn par_sort_by<T, F>(data: &mut [T], compare: F)
where
    T: Send + Clone,
    F: Fn(&T, &T) -> std::cmp::Ordering + Sync,
{
    const SEQ_CUTOFF: usize = 8 * 1024;
    let width = width();
    if width <= 1 || data.len() <= SEQ_CUTOFF {
        data.sort_by(compare);
        return;
    }
    // `par_chunks_mut` cuts at these same ranges: one per worker.
    let ranges = split_ranges(data.len(), width);
    par_chunks_mut(data, |_, chunk| chunk.sort_by(&compare));
    // Pairwise-merge sorted runs until one remains.
    let mut runs: Vec<Vec<T>> = ranges
        .iter()
        .map(|r| data[r.start..r.end].to_vec())
        .collect();
    while runs.len() > 1 {
        let mut next: Vec<Vec<T>> = Vec::with_capacity(runs.len().div_ceil(2));
        let mut iter = runs.into_iter();
        while let Some(a) = iter.next() {
            match iter.next() {
                Some(b) => next.push(merge_by(a, b, &compare)),
                None => next.push(a),
            }
        }
        runs = next;
    }
    if let Some(merged) = runs.pop() {
        data.clone_from_slice(&merged);
    }
}

fn merge_by<T: Clone, F: Fn(&T, &T) -> std::cmp::Ordering>(
    a: Vec<T>,
    b: Vec<T>,
    compare: &F,
) -> Vec<T> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut ai, mut bi) = (0, 0);
    while ai < a.len() && bi < b.len() {
        // `<=` keeps the merge stable: the left (earlier) run wins ties.
        if compare(&a[ai], &b[bi]) != std::cmp::Ordering::Greater {
            out.push(a[ai].clone());
            ai += 1;
        } else {
            out.push(b[bi].clone());
            bi += 1;
        }
    }
    out.extend_from_slice(&a[ai..]);
    out.extend_from_slice(&b[bi..]);
    out
}

/// A monotonically increasing work counter usable from parallel closures
/// (e.g. to report progress from long benchmark scenarios).
#[derive(Debug, Default)]
pub struct WorkCounter(AtomicUsize);

impl WorkCounter {
    /// A counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` units of completed work; returns the new total.
    pub fn add(&self, n: usize) -> usize {
        self.0.fetch_add(n, Ordering::Relaxed) + n
    }

    /// The current total.
    pub fn get(&self) -> usize {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_ranges_covers_exactly() {
        for len in [0usize, 1, 2, 7, 100, 101] {
            for parts in [1usize, 2, 3, 8] {
                let rs = split_ranges(len, parts);
                let total: usize = rs.iter().map(|r| r.len()).sum();
                assert_eq!(total, len, "len={len} parts={parts}");
                let mut expect = 0;
                for r in &rs {
                    assert_eq!(r.start, expect);
                    assert!(!r.is_empty());
                    expect = r.end;
                }
            }
        }
    }

    /// Worker budgets every entry point is checked at: sequential, even,
    /// odd, and wider than some inputs.
    const WIDTHS: std::ops::RangeInclusive<usize> = 1..=5;

    #[test]
    fn par_chunks_mut_touches_every_item_once() {
        for w in WIDTHS {
            let mut v = vec![0u32; 1000];
            with_width(w, || {
                par_chunks_mut(&mut v, |start, chunk| {
                    for (off, x) in chunk.iter_mut().enumerate() {
                        *x += (start + off) as u32;
                    }
                })
            });
            for (i, &x) in v.iter().enumerate() {
                assert_eq!(x, i as u32, "width {w}");
            }
        }
    }

    #[test]
    fn par_row_chunks_are_row_aligned() {
        let row_len = 7;
        let rows = 23;
        for w in WIDTHS {
            let mut v = vec![0usize; rows * row_len];
            with_width(w, || {
                par_row_chunks_mut(&mut v, row_len, |first_row, band| {
                    assert_eq!(band.len() % row_len, 0, "band not row aligned");
                    for (off, x) in band.iter_mut().enumerate() {
                        *x = first_row * row_len + off;
                    }
                })
            });
            for (i, &x) in v.iter().enumerate() {
                assert_eq!(x, i, "width {w}");
            }
        }
    }

    #[test]
    fn par_map_preserves_order() {
        for w in WIDTHS {
            let out = with_width(w, || par_map(257, |i| i * 2));
            assert_eq!(out.len(), 257);
            for (i, &x) in out.iter().enumerate() {
                assert_eq!(x, i * 2, "width {w}");
            }
        }
    }

    /// The shards are fixed by `parts`; the budget only decides who runs
    /// them, so every width returns the same shards in order.
    #[test]
    fn par_map_ranges_returns_shards_in_order() {
        for parts in [1usize, 2, 3, 4, 7] {
            let expect = split_ranges(10, parts);
            for w in WIDTHS {
                let out = with_width(w, || par_map_ranges(10, parts, |r| r));
                assert_eq!(out, expect, "parts={parts} width={w}");
            }
        }
        assert!(par_map_ranges(0, 4, |r| r.len()).is_empty());
    }

    #[test]
    fn par_ranges_covers_all_indices() {
        use std::sync::Mutex;
        for w in WIDTHS {
            let hits = Mutex::new(vec![0u8; 999]);
            with_width(w, || {
                par_ranges(999, |r| {
                    let mut h = hits.lock().unwrap();
                    for i in r {
                        h[i] += 1;
                    }
                })
            });
            assert!(hits.lock().unwrap().iter().all(|&h| h == 1), "width {w}");
        }
    }

    #[test]
    fn par_sort_matches_std_sort() {
        // Deterministic pseudo-random data, above and below the cutoff.
        for n in [10usize, 1000, 20_000] {
            let mut a: Vec<u64> = (0..n as u64)
                .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(17))
                .collect();
            let b = a.clone();
            a.sort();
            for w in WIDTHS {
                let mut b = b.clone();
                with_width(w, || par_sort_by(&mut b, |x, y| x.cmp(y)));
                assert_eq!(a, b, "n={n} width={w}");
            }
        }
    }

    #[test]
    fn par_sort_is_stable() {
        // Sort by key only; payload order within equal keys must persist.
        for width in WIDTHS {
            let mut v: Vec<(u32, usize)> = (0..30_000).map(|i| ((i % 7) as u32, i)).collect();
            with_width(width, || par_sort_by(&mut v, |a, b| a.0.cmp(&b.0)));
            for w in v.windows(2) {
                assert!(w[0].0 <= w[1].0);
                if w[0].0 == w[1].0 {
                    assert!(w[0].1 < w[1].1, "stability violated: {:?}", w);
                }
            }
        }
    }

    /// The payload of the panic `f` raised, as a string.
    fn panic_payload<R>(f: impl FnOnce() -> R) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .err()
            .expect("the closure panicked");
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("a string payload")
    }

    #[test]
    fn join_returns_results_in_order() {
        for w in WIDTHS {
            let (a, b) = with_width(w, || join(|| "left", || 7));
            assert_eq!((a, b), ("left", 7), "width {w}");
        }
    }

    #[test]
    fn join_splits_the_budget() {
        let sides = |w| with_width(w, || join(width, width));
        assert_eq!(sides(1), (1, 1));
        assert_eq!(sides(2), (1, 1));
        assert_eq!(sides(3), (2, 1));
        assert_eq!(sides(4), (2, 2));
        assert_eq!(sides(5), (3, 2));
    }

    #[test]
    fn budget_is_restored_after_join_and_after_a_panicking_side() {
        with_width(4, || {
            join(|| (), || ());
            assert_eq!(width(), 4);
            assert_eq!(panic_payload(|| join(|| panic!("left"), || ())), "left");
            assert_eq!(width(), 4);
            assert_eq!(panic_payload(|| join(|| (), || panic!("right"))), "right");
            assert_eq!(width(), 4);
            // Both sides panic: the left payload wins, after both finished.
            let both = || join(|| panic!("left"), || panic!("right"));
            assert_eq!(panic_payload(both), "left");
            assert_eq!(width(), 4);
        });
        // Sequential fallback: the panic propagates and the budget stays.
        with_width(1, || {
            assert_eq!(panic_payload(|| join(|| (), || panic!("seq"))), "seq");
            assert_eq!(width(), 1);
        });
    }

    #[test]
    fn nested_join_divides_the_budget_again() {
        let quarter = || join(|| (width(), 1), || (width(), 2));
        let out = with_width(4, || join(quarter, quarter));
        assert_eq!(out, (((1, 1), (1, 2)), ((1, 1), (1, 2))));
        let out = with_width(3, || join(quarter, quarter));
        assert_eq!(out, (((1, 1), (1, 2)), ((1, 1), (1, 2))));
    }

    #[test]
    fn a_side_with_one_worker_runs_its_shards_in_line() {
        let ids = || par_map_ranges(8, 4, |_| std::thread::current().id());
        let (left, right) = with_width(2, || join(ids, ids));
        assert!(left.iter().all(|&id| id == std::thread::current().id()));
        assert!(right.iter().all(|&id| id == right[0]));
        assert_ne!(left[0], right[0]);
    }

    #[test]
    fn a_worker_panic_keeps_its_payload() {
        let boom = || {
            par_map_ranges(4, 2, |r| {
                if r.start > 0 {
                    panic!("boom")
                }
            })
        };
        assert_eq!(panic_payload(boom), "boom");
        for w in WIDTHS {
            with_width(w, || {
                assert_eq!(panic_payload(boom), "boom", "width {w}");
                let last = |r: Range<usize>| {
                    if r.end == 100 {
                        panic!("ranges")
                    }
                };
                assert_eq!(panic_payload(|| par_ranges(100, last)), "ranges");
                let mut v = vec![0u8; 100];
                let chunk = |s: usize, c: &mut [u8]| {
                    if s + c.len() == 100 {
                        panic!("chunks")
                    }
                };
                assert_eq!(panic_payload(|| par_chunks_mut(&mut v, chunk)), "chunks");
                let band = |first: usize, b: &mut [u8]| {
                    if first * 10 + b.len() == 100 {
                        panic!("bands")
                    }
                };
                assert_eq!(
                    panic_payload(|| par_row_chunks_mut(&mut v, 10, band)),
                    "bands"
                );
                let map = |i| if i == 99 { panic!("map") } else { i };
                assert_eq!(panic_payload(|| par_map(100, map)), "map");
                let mut big: Vec<u32> = (0..20_000).rev().collect();
                let cmp = |a: &u32, b: &u32| {
                    if *a == 0 || *b == 0 {
                        panic!("sort")
                    }
                    a.cmp(b)
                };
                assert_eq!(panic_payload(|| par_sort_by(&mut big, cmp)), "sort");
                assert_eq!(width(), w);
            });
        }
    }

    #[test]
    fn work_counter_accumulates() {
        let c = WorkCounter::new();
        assert_eq!(c.add(3), 3);
        assert_eq!(c.add(4), 7);
        assert_eq!(c.get(), 7);
    }
}
