//! The micro-batching ingress: coalesce concurrent single queries into
//! batched kernel dispatches — with admission control, deadlines, panic
//! isolation, and graceful degradation.
//!
//! A single [`ShardedService::query`](crate::ShardedService::query) pays
//! the full scatter-gather dispatch cost alone — panel gather, per-shard
//! scan setup, merge — while the batched kernel amortizes all of it
//! across a 4-query × 16-candidate register tile. Under heavy
//! single-query traffic that difference is the whole throughput story,
//! so the ingress queues incoming queries and a dedicated worker drains
//! them under a **window derived from the previous dispatch**: after a
//! batch of `b` that took `t`, it expects those `b` callers back plus
//! what queued meanwhile, and dispatches once that many (at most
//! `max_batch`) are pending or `t` after the dispatch ended. It never
//! waits longer for a batch than the dispatch it hopes to save (as
//! adaptive batchers such as Clipper do), so closed-loop callers
//! coalesce while a lone query on an idle ingress goes out at once. A
//! window that closes short expects none of its callers back, so
//! open-loop traffic never waits out a dispatch per dispatch.
//!
//! Each drained batch is grouped by [`QueryOptions::coalesces_with`]
//! (concurrent traffic is usually uniform, so one group is the common
//! case) and every group runs as **one** coherent
//! [`query_batch`](crate::ShardedService::query_batch) dispatch — all
//! answers of a group carry the same snapshot version. Waiting callers
//! are then woken with their slice of the batch.
//!
//! # Overload resilience
//!
//! The queue is **bounded** ([`IngressConfig::max_queue`]): admissions
//! beyond capacity fail fast with
//! [`DaakgError::Overloaded`] instead of growing an unbounded backlog
//! whose every entry waits longer than the last. Queries may carry a
//! **deadline** ([`QueryOptions::deadline`]); one still queued when its
//! deadline elapses is shed at dequeue with
//! [`DaakgError::DeadlineExceeded`] — no kernel time is burned on an
//! answer nobody is waiting for. An opt-in [`DegradePolicy`] trades
//! exactness for capacity under pressure: when the queue depth crosses
//! the policy's high watermark, index-carrying `Exact` queries are
//! served as reduced-`nprobe` `Approx` until depth falls back below the
//! low watermark (hysteresis), and every answer is stamped with the
//! [`QueryMode`] actually served.
//!
//! # Fault isolation
//!
//! A query that panics inside the execution engine is caught at the
//! dispatch boundary ([`std::panic::catch_unwind`]): its waiter receives
//! a typed [`DaakgError::Panicked`], while the worker thread and every
//! other in-flight query survive — peers in the same batch still get
//! their bitwise-exact answers. Lock poisoning anywhere in the ingress
//! is recovered, never cascaded into client threads; a waiter that
//! observes an unfillable slot gets a typed error, not a hang. Dropping
//! the ingress drains the queue (pending queries get real answers) and
//! wakes anything left with [`DaakgError::Shutdown`].
//!
//! Tuning: `max_batch` bounds how much sharing a dispatch can exploit;
//! size it near the expected number of concurrent callers. Size
//! `max_queue` for the worst queueing delay you are willing to serve: at
//! saturation the last admitted query waits roughly
//! `max_queue / throughput`.

use crate::service::{AlignmentService, Ranking, Served, Versioned};
use daakg_graph::DaakgError;
use daakg_index::{QueryMode, QueryOptions};
use daakg_telemetry::{Counter, EventJournal, EventKind, Gauge, HistogramHandle, Telemetry};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Recover a possibly-poisoned mutex: a panic elsewhere must not
/// cascade into this thread. Every ingress lock site goes through here —
/// the protected state (a queue of pending queries, an answer slot) is
/// valid at every await point, so the poison flag carries no information
/// beyond "some thread panicked", which the dispatch boundary already
/// converts to a typed error.
pub(crate) fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Render a caught panic payload for the typed error.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Opt-in graceful degradation under queue pressure.
///
/// When the pending-queue depth reaches `high_watermark` at a drain, the
/// ingress enters degraded mode: `Exact` queries on an index-carrying
/// service are served as `Approx { nprobe }` — cheaper, sublinear scans
/// that drain the backlog faster — until depth falls to `low_watermark`
/// (hysteresis, so the mode does not flap around one threshold). Every
/// answer is stamped with the [`QueryMode`] actually served
/// ([`Served::served`]), so the bitwise-exactness guarantee is only ever
/// relaxed for callers who configured this policy, and visibly so.
///
/// Degradation never engages unless a policy is explicitly configured
/// ([`IngressConfig::degrade`]), and never affects services without an
/// IVF index (there is no cheaper mode to fall back to).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradePolicy {
    /// Enter degraded mode when the queue depth reaches this many
    /// pending queries (`1..=max_queue`).
    pub high_watermark: usize,
    /// Leave degraded mode when the depth falls back to this many
    /// (`<= high_watermark`).
    pub low_watermark: usize,
    /// The `nprobe` served in place of `Exact` while degraded (`>= 1`;
    /// smaller is cheaper and less exact).
    pub nprobe: usize,
}

impl DegradePolicy {
    /// Validate the watermarks against the queue bound.
    pub fn validate(&self, max_queue: usize) -> Result<(), DaakgError> {
        if self.nprobe == 0 {
            return Err(DaakgError::invalid(
                "DegradePolicy",
                "nprobe must be at least 1",
            ));
        }
        if self.high_watermark == 0 {
            return Err(DaakgError::invalid(
                "DegradePolicy",
                "high_watermark must be at least 1",
            ));
        }
        if self.low_watermark > self.high_watermark {
            return Err(DaakgError::invalid(
                "DegradePolicy",
                format!(
                    "low_watermark {} exceeds high_watermark {} — hysteresis \
                     needs low <= high",
                    self.low_watermark, self.high_watermark
                ),
            ));
        }
        if self.high_watermark > max_queue {
            return Err(DaakgError::invalid(
                "DegradePolicy",
                format!(
                    "high_watermark {} exceeds max_queue {} — the queue can \
                     never reach it, so the policy would never engage",
                    self.high_watermark, max_queue
                ),
            ));
        }
        Ok(())
    }
}

/// The batch bound and overload envelope of the micro-batching ingress.
/// The coalescing wait has no knob: the worker derives it from its
/// previous dispatch (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngressConfig {
    /// Dispatch as soon as this many queries are pending (`1..=65536`).
    pub max_batch: usize,
    /// Admission bound: with this many queries already pending, further
    /// submissions fail fast with [`DaakgError::Overloaded`]
    /// (`max_batch..=1048576`). Bounding the queue bounds the worst
    /// queueing delay an admitted query can see.
    pub max_queue: usize,
    /// Opt-in graceful degradation under queue pressure; `None` (the
    /// default) never degrades.
    pub degrade: Option<DegradePolicy>,
}

impl Default for IngressConfig {
    /// 64 queries / 8192 queue slots, no degradation — sized for the
    /// batched kernel's panel width and a queue deep enough that
    /// admission only rejects under sustained overload.
    fn default() -> Self {
        Self {
            max_batch: 64,
            max_queue: 8192,
            degrade: None,
        }
    }
}

impl IngressConfig {
    /// Validate the batch and queue bounds.
    pub fn validate(&self) -> Result<(), DaakgError> {
        if self.max_batch == 0 {
            return Err(DaakgError::invalid(
                "IngressConfig",
                "max_batch must be at least 1",
            ));
        }
        if self.max_batch > 65536 {
            return Err(DaakgError::invalid(
                "IngressConfig",
                format!("max_batch {} exceeds the 65536 maximum", self.max_batch),
            ));
        }
        if self.max_queue < self.max_batch {
            return Err(DaakgError::invalid(
                "IngressConfig",
                format!(
                    "max_queue {} is below max_batch {} — the queue must \
                     hold at least one full batch",
                    self.max_queue, self.max_batch
                ),
            ));
        }
        if self.max_queue > 1 << 20 {
            return Err(DaakgError::invalid(
                "IngressConfig",
                format!(
                    "max_queue {} exceeds the 1048576 maximum — an \
                     unbounded backlog is the failure mode this bound \
                     exists to prevent",
                    self.max_queue
                ),
            ));
        }
        if let Some(policy) = &self.degrade {
            policy.validate(self.max_queue)?;
        }
        Ok(())
    }
}

/// Dispatch and resilience counters of a running ingress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngressStats {
    /// Queries admitted through the ingress.
    pub queries: u64,
    /// Batched kernel dispatches issued (`queries / batches` is the mean
    /// coalescing factor).
    pub batches: u64,
    /// Admissions rejected with [`DaakgError::Overloaded`] (queue at
    /// capacity).
    pub shed: u64,
    /// Queries shed with [`DaakgError::DeadlineExceeded`] — at admission
    /// (already-elapsed deadline) or at dequeue.
    pub expired: u64,
    /// `Exact` queries served as reduced-`nprobe` `Approx` by an engaged
    /// [`DegradePolicy`].
    pub degraded: u64,
    /// Queries whose answer was a caught panic
    /// ([`DaakgError::Panicked`]) — the worker survives each one.
    pub panics: u64,
    /// High-water mark of the pending-queue depth.
    pub max_depth: u64,
}

/// An answer plus the [`QueryMode`] it was actually served under.
type ServedResult = Result<(Versioned<Ranking>, QueryMode), DaakgError>;

/// One waiting caller's answer slot. The payload carries the
/// [`QueryMode`] actually served so degradation is observable per
/// answer.
struct ResponseSlot {
    result: Mutex<Option<ServedResult>>,
    ready: Condvar,
}

impl ResponseSlot {
    fn new() -> Self {
        Self {
            result: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    fn fill(&self, result: ServedResult) {
        *lock_recover(&self.result) = Some(result);
        self.ready.notify_one();
    }

    /// Block until the slot is filled. A poisoned slot whose result was
    /// never set means the filling thread died mid-fill — the waiter
    /// gets a typed error instead of inheriting the panic or hanging.
    fn wait(&self) -> ServedResult {
        let mut observed_poison = self.result.is_poisoned();
        let mut guard = lock_recover(&self.result);
        loop {
            if let Some(result) = guard.take() {
                return result;
            }
            if observed_poison {
                return Err(DaakgError::Panicked {
                    context: "ingress response slot",
                    message: "the thread filling this answer slot panicked mid-fill".into(),
                });
            }
            match self.ready.wait(guard) {
                Ok(next) => guard = next,
                Err(poisoned) => {
                    observed_poison = true;
                    guard = poisoned.into_inner();
                }
            }
        }
    }
}

/// A submitted-but-unanswered query: the handle an open-loop caller
/// holds between [`ShardedService::submit`](crate::ShardedService::submit)
/// and collecting the answer. Admission already succeeded — the query is
/// queued (or answered); waiting cannot return
/// [`DaakgError::Overloaded`].
pub struct PendingAnswer {
    slot: Arc<ResponseSlot>,
}

impl PendingAnswer {
    pub(crate) fn filled(result: Result<(Versioned<Ranking>, QueryMode), DaakgError>) -> Self {
        let slot = Arc::new(ResponseSlot::new());
        slot.fill(result);
        Self { slot }
    }

    /// Block until the answer arrives.
    pub fn wait(self) -> Result<Versioned<Ranking>, DaakgError> {
        self.slot.wait().map(|(answer, _)| answer)
    }

    /// Block until the answer arrives, keeping the [`QueryMode`] it was
    /// actually served under (see [`DegradePolicy`]).
    pub fn wait_served(self) -> Result<Served<Ranking>, DaakgError> {
        self.slot.wait().map(|(answer, served)| Served {
            version: answer.version,
            value: answer.value,
            deltas_merged: answer.deltas_merged,
            served,
        })
    }
}

struct PendingQuery {
    e1: u32,
    opts: QueryOptions,
    /// Submission instant — deadlines are measured from here.
    enqueued: Instant,
    slot: Arc<ResponseSlot>,
}

impl Drop for PendingQuery {
    /// Liveness backstop: a pending query dropped without an answer
    /// (worker death outside the dispatch boundary, a queue discarded at
    /// shutdown) wakes its waiter with a typed shutdown error instead of
    /// leaving it blocked forever. After a normal `fill` this is a no-op
    /// (the slot already holds — or already delivered — its answer).
    fn drop(&mut self) {
        let mut guard = lock_recover(&self.slot.result);
        if guard.is_none() {
            *guard = Some(Err(DaakgError::Shutdown { context: "ingress" }));
            drop(guard);
            self.slot.ready.notify_one();
        }
    }
}

struct IngressQueue {
    pending: VecDeque<PendingQuery>,
    shutdown: bool,
}

/// The ingress's registry handles and journal: every stat counter is a
/// lock-free registry cell (pure-counting paths never take a lock —
/// `lock_recover` guards only the pending queue and answer slots), the
/// two stage histograms split queue wait from batch execution, and
/// lifecycle transitions (shed / expired / degrade engage + recover) are
/// journaled as structured events.
struct IngressMetrics {
    queries: Counter,
    batches: Counter,
    shed: Counter,
    expired: Counter,
    degraded: Counter,
    panics: Counter,
    /// High-water mark of the pending-queue depth.
    max_depth: Gauge,
    /// 1 while the [`DegradePolicy`] is engaged (exposition mirror of
    /// the functional flag in [`IngressShared::degrade_engaged`]).
    degrade_engaged: Gauge,
    /// Admission → dequeue wait per query.
    queue_wait: HistogramHandle,
    /// Batched dispatch execution per drained batch.
    execute: HistogramHandle,
    journal: EventJournal,
}

impl IngressMetrics {
    fn new(telemetry: &Telemetry) -> Self {
        let reg = telemetry.registry();
        Self {
            queries: reg.counter("ingress_queries_total"),
            batches: reg.counter("ingress_batches_total"),
            shed: reg.counter("ingress_shed_total"),
            expired: reg.counter("ingress_expired_total"),
            degraded: reg.counter("ingress_degraded_total"),
            panics: reg.counter("ingress_panics_total"),
            max_depth: reg.gauge("ingress_queue_depth_max"),
            degrade_engaged: reg.gauge("ingress_degrade_engaged"),
            queue_wait: reg.histogram("stage_ingress_queue_wait_ns"),
            execute: reg.histogram("stage_ingress_execute_ns"),
            journal: telemetry.journal().clone(),
        }
    }
}

struct IngressShared {
    queue: Mutex<IngressQueue>,
    /// Signaled on every enqueue and on shutdown.
    arrived: Condvar,
    metrics: IngressMetrics,
    /// Whether the [`DegradePolicy`] is currently engaged. Kept as a
    /// plain atomic (not a registry cell) because it *drives* dispatch
    /// decisions — it must work even with telemetry disabled.
    degrade_engaged: AtomicBool,
}

/// What the ingress worker dispatches against. The service in
/// production; chaos tests inject backends that panic or stall on
/// command.
pub(crate) trait IngressBackend: Send + Sync + 'static {
    fn query(&self, e1: u32, opts: QueryOptions) -> Result<Versioned<Ranking>, DaakgError>;
    fn query_batch(
        &self,
        queries: &[u32],
        opts: QueryOptions,
    ) -> Result<Versioned<Vec<Ranking>>, DaakgError>;
    /// Whether an IVF index is configured — the precondition for
    /// degrading `Exact` to `Approx`.
    fn has_index(&self) -> bool;
}

impl IngressBackend for AlignmentService {
    fn query(&self, e1: u32, opts: QueryOptions) -> Result<Versioned<Ranking>, DaakgError> {
        AlignmentService::query(self, e1, opts)
    }

    fn query_batch(
        &self,
        queries: &[u32],
        opts: QueryOptions,
    ) -> Result<Versioned<Vec<Ranking>>, DaakgError> {
        AlignmentService::query_batch(self, queries, opts)
    }

    fn has_index(&self) -> bool {
        self.serving().index.is_some()
    }
}

/// The running ingress: a queue, a worker thread, and its
/// configuration. Dropping it shuts the worker down after draining every
/// pending query — drained queries get real answers, anything left is
/// woken with [`DaakgError::Shutdown`]; no caller is left blocked.
pub struct Ingress {
    shared: Arc<IngressShared>,
    cfg: IngressConfig,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl Ingress {
    /// Spawn the worker over the dispatch backend, recording into
    /// `telemetry`'s registry and journal. `cfg` must already be
    /// validated.
    pub(crate) fn start<B: IngressBackend>(
        cfg: IngressConfig,
        backend: Arc<B>,
        telemetry: &Telemetry,
    ) -> Self {
        let shared = Arc::new(IngressShared {
            queue: Mutex::new(IngressQueue {
                pending: VecDeque::new(),
                shutdown: false,
            }),
            arrived: Condvar::new(),
            metrics: IngressMetrics::new(telemetry),
            degrade_engaged: AtomicBool::new(false),
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("daakg-ingress".into())
            .spawn(move || worker_loop(cfg, worker_shared, backend))
            .expect("spawn ingress worker");
        Self {
            shared,
            cfg,
            worker: Some(worker),
        }
    }

    pub(crate) fn config(&self) -> IngressConfig {
        self.cfg
    }

    /// A point-in-time read of the registry-backed counters. With
    /// telemetry disabled every cell is a no-op, so the stats read as
    /// all-zero — degradation itself (the functional
    /// [`Ingress::degrade_engaged`] flag) keeps working regardless.
    pub(crate) fn stats(&self) -> IngressStats {
        let m = &self.shared.metrics;
        IngressStats {
            queries: m.queries.get(),
            batches: m.batches.get(),
            shed: m.shed.get(),
            expired: m.expired.get(),
            degraded: m.degraded.get(),
            panics: m.panics.get(),
            max_depth: m.max_depth.get(),
        }
    }

    /// Whether the [`DegradePolicy`] is currently engaged.
    pub(crate) fn degrade_engaged(&self) -> bool {
        self.shared.degrade_engaged.load(Ordering::Relaxed)
    }

    /// Admit one (pre-validated) query without blocking for its answer.
    /// Fails fast with [`DaakgError::Overloaded`] at capacity, with
    /// [`DaakgError::DeadlineExceeded`] when the deadline is already
    /// elapsed at admission, and with [`DaakgError::Shutdown`] after
    /// shutdown began.
    pub(crate) fn submit_ticket(
        &self,
        e1: u32,
        opts: QueryOptions,
    ) -> Result<PendingAnswer, DaakgError> {
        let now = Instant::now();
        if let Some(deadline) = opts.deadline {
            // A zero (or otherwise pre-elapsed) deadline can never be
            // met: shed at admission without touching the queue.
            if deadline.is_zero() {
                self.shared.metrics.expired.incr();
                self.shared
                    .metrics
                    .journal
                    .record(EventKind::DeadlineExpired);
                return Err(DaakgError::DeadlineExceeded {
                    deadline,
                    waited: Duration::ZERO,
                });
            }
        }
        let slot = Arc::new(ResponseSlot::new());
        {
            let mut queue = lock_recover(&self.shared.queue);
            if queue.shutdown {
                return Err(DaakgError::Shutdown { context: "ingress" });
            }
            let depth = queue.pending.len();
            if depth >= self.cfg.max_queue {
                drop(queue);
                self.shared.metrics.shed.incr();
                self.shared
                    .metrics
                    .journal
                    .record(EventKind::QueryShed { depth });
                return Err(DaakgError::Overloaded {
                    queued: depth,
                    capacity: self.cfg.max_queue,
                });
            }
            queue.pending.push_back(PendingQuery {
                e1,
                opts,
                enqueued: now,
                slot: Arc::clone(&slot),
            });
            self.shared.metrics.max_depth.record_max(depth as u64 + 1);
        }
        self.shared.metrics.queries.incr();
        self.shared.arrived.notify_one();
        Ok(PendingAnswer { slot })
    }

    /// Enqueue one (pre-validated) query and block until its batch is
    /// answered.
    #[cfg(test)]
    pub(crate) fn submit(
        &self,
        e1: u32,
        opts: QueryOptions,
    ) -> Result<(Versioned<Ranking>, QueryMode), DaakgError> {
        self.submit_ticket(e1, opts)?.slot.wait()
    }
}

impl Drop for Ingress {
    fn drop(&mut self) {
        {
            let mut queue = lock_recover(&self.shared.queue);
            queue.shutdown = true;
        }
        self.shared.arrived.notify_all();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
        // The worker drains the queue before exiting, answering every
        // pending query for real. Anything still here means the worker
        // died (pure defense — it catches query panics): dropping the
        // entries wakes those waiters with a typed shutdown error via
        // the `PendingQuery` drop backstop.
        lock_recover(&self.shared.queue).pending.clear();
    }
}

fn worker_loop<B: IngressBackend>(cfg: IngressConfig, shared: Arc<IngressShared>, backend: Arc<B>) {
    // How many callers of the previous dispatch to expect back, and when
    // its window closes (its end plus its execute time).
    let (mut callers, mut window_end) = (0, Instant::now());
    loop {
        let batch = {
            let mut queue = lock_recover(&shared.queue);
            // Expect the previous callers back plus every query that
            // queued while their batch executed.
            let expect = (callers + queue.pending.len()).min(cfg.max_batch);
            // Sleep until traffic (or shutdown) arrives.
            while queue.pending.is_empty() {
                if queue.shutdown {
                    return;
                }
                queue = shared
                    .arrived
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            // Collect until the expected queries are pending or the
            // window closes. Shutdown short-circuits the wait but still
            // drains what's queued.
            while queue.pending.len() < expect && !queue.shutdown {
                let now = Instant::now();
                if now >= window_end {
                    break;
                }
                queue = shared
                    .arrived
                    .wait_timeout(queue, window_end - now)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
            // A window that closed short has shown its callers are not
            // coming back (open-loop traffic): expect none of this batch's.
            let missed = queue.pending.len() < expect;
            // Watermark check with hysteresis, on the depth the drain
            // observes: engage at `high`, disengage at `low`, hold the
            // previous state in between.
            if let Some(policy) = &cfg.degrade {
                let depth = queue.pending.len();
                let engaged = shared.degrade_engaged.load(Ordering::Relaxed);
                if !engaged && depth >= policy.high_watermark {
                    shared.degrade_engaged.store(true, Ordering::Relaxed);
                    shared.metrics.degrade_engaged.set(1);
                    shared
                        .metrics
                        .journal
                        .record(EventKind::DegradeEngage { depth });
                } else if engaged && depth <= policy.low_watermark {
                    shared.degrade_engaged.store(false, Ordering::Relaxed);
                    shared.metrics.degrade_engaged.set(0);
                    shared
                        .metrics
                        .journal
                        .record(EventKind::DegradeRecover { depth });
                }
            }
            let take = queue.pending.len().min(cfg.max_batch);
            callers = if missed { 0 } else { take };
            queue.pending.drain(..take).collect::<Vec<_>>()
        };
        // Shed what already missed its deadline — dead work would only
        // delay the live queries behind it.
        let now = Instant::now();
        let mut live = Vec::with_capacity(batch.len());
        for pending in batch {
            let waited = now.duration_since(pending.enqueued);
            shared.metrics.queue_wait.record_duration(waited);
            match pending.opts.deadline {
                Some(deadline) if waited >= deadline => {
                    shared.metrics.expired.incr();
                    shared.metrics.journal.record(EventKind::DeadlineExpired);
                    pending
                        .slot
                        .fill(Err(DaakgError::DeadlineExceeded { deadline, waited }));
                }
                _ => live.push(pending),
            }
        }
        if live.is_empty() {
            continue;
        }
        shared.metrics.batches.incr();
        let degrade_nprobe = match &cfg.degrade {
            Some(policy)
                if shared.degrade_engaged.load(Ordering::Relaxed) && backend.has_index() =>
            {
                Some(policy.nprobe)
            }
            _ => None,
        };
        let _execute = shared.metrics.execute.span();
        dispatch(backend.as_ref(), live, degrade_nprobe, &shared);
        let end = Instant::now();
        window_end = end + (end - now);
    }
}

/// Run one drained batch: group by kernel-relevant options, one coherent
/// `query_batch` per group, distribute the slices to the waiting
/// callers. Panics inside the backend are caught here — the offending
/// query's waiter gets a typed error, peers get their real answers, and
/// the worker loop above never observes the unwind.
fn dispatch<B: IngressBackend + ?Sized>(
    backend: &B,
    batch: Vec<PendingQuery>,
    degrade_nprobe: Option<usize>,
    shared: &IngressShared,
) {
    let mut rest = batch;
    while !rest.is_empty() {
        let opts = rest[0].opts;
        let (group, others): (Vec<_>, Vec<_>) =
            rest.into_iter().partition(|p| p.opts.coalesces_with(&opts));
        rest = others;
        let mut effective = opts;
        if let Some(nprobe) = degrade_nprobe {
            if effective.mode == QueryMode::Exact {
                effective.mode = QueryMode::Approx { nprobe };
                shared.metrics.degraded.add(group.len() as u64);
            }
        }
        let served = effective.mode;
        let queries: Vec<u32> = group.iter().map(|p| p.e1).collect();
        match catch_unwind(AssertUnwindSafe(|| {
            backend.query_batch(&queries, effective)
        })) {
            Ok(Ok(answered)) => {
                let version = answered.version;
                let deltas_merged = answered.deltas_merged;
                for (pending, value) in group.into_iter().zip(answered.value) {
                    pending.slot.fill(Ok((
                        Versioned {
                            version,
                            value,
                            deltas_merged,
                        },
                        served,
                    )));
                }
            }
            // A batch error (queries are validated before enqueue, so
            // this is exceptional) or a caught batch panic: re-dispatch
            // individually so every caller gets its own typed outcome —
            // the poisonous query its panic/error, its peers their real
            // answers.
            Ok(Err(_)) | Err(_) => {
                for pending in group {
                    let result = match catch_unwind(AssertUnwindSafe(|| {
                        backend.query(pending.e1, effective)
                    })) {
                        Ok(answer) => answer.map(|versioned| (versioned, served)),
                        Err(payload) => {
                            shared.metrics.panics.incr();
                            Err(DaakgError::Panicked {
                                context: "ingress batch",
                                message: panic_message(payload),
                            })
                        }
                    };
                    pending.slot.fill(result);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::SnapshotVersion;

    #[test]
    fn ingress_config_is_validated() {
        assert!(IngressConfig::default().validate().is_ok());
        let zero = IngressConfig {
            max_batch: 0,
            ..IngressConfig::default()
        };
        assert!(matches!(
            zero.validate(),
            Err(DaakgError::InvalidConfig { .. })
        ));
        let huge = IngressConfig {
            max_batch: 1 << 20,
            ..IngressConfig::default()
        };
        assert!(huge.validate().is_err());
        let shallow = IngressConfig {
            max_batch: 64,
            max_queue: 32,
            ..IngressConfig::default()
        };
        assert!(shallow.validate().is_err());
        let bottomless = IngressConfig {
            max_queue: 1 << 21,
            ..IngressConfig::default()
        };
        assert!(bottomless.validate().is_err());
    }

    #[test]
    fn degrade_policy_is_validated() {
        let ok = DegradePolicy {
            high_watermark: 100,
            low_watermark: 10,
            nprobe: 2,
        };
        assert!(ok.validate(8192).is_ok());
        assert!(IngressConfig {
            degrade: Some(ok),
            ..IngressConfig::default()
        }
        .validate()
        .is_ok());
        let zero_probe = DegradePolicy { nprobe: 0, ..ok };
        assert!(zero_probe.validate(8192).is_err());
        let zero_high = DegradePolicy {
            high_watermark: 0,
            low_watermark: 0,
            ..ok
        };
        assert!(zero_high.validate(8192).is_err());
        let inverted = DegradePolicy {
            high_watermark: 10,
            low_watermark: 20,
            ..ok
        };
        assert!(inverted.validate(8192).is_err());
        let unreachable = DegradePolicy {
            high_watermark: 9000,
            ..ok
        };
        assert!(unreachable.validate(8192).is_err());
    }

    #[test]
    fn response_slot_roundtrips() {
        let slot = Arc::new(ResponseSlot::new());
        let waiter = {
            let slot = Arc::clone(&slot);
            std::thread::spawn(move || slot.wait())
        };
        slot.fill(Ok((
            Versioned {
                version: SnapshotVersion::of(7),
                value: vec![(1, 0.5)],
                deltas_merged: 0,
            },
            QueryMode::Exact,
        )));
        let (got, served) = waiter.join().expect("waiter").expect("ok");
        assert_eq!(got.version.get(), 7);
        assert_eq!(got.value, vec![(1, 0.5)]);
        assert_eq!(served, QueryMode::Exact);
    }

    /// Satellite: a waiter observing a poisoned, never-filled slot gets
    /// a typed error — the panic does not cascade into the client
    /// thread, and the client does not hang.
    #[test]
    fn poisoned_unfilled_slot_yields_typed_error_not_panic_or_hang() {
        let slot = Arc::new(ResponseSlot::new());
        // Poison the result mutex: a thread panics while holding it,
        // without ever setting a result (a filler dying mid-fill).
        let poisoner = {
            let slot = Arc::clone(&slot);
            std::thread::spawn(move || {
                let _guard = slot.result.lock().unwrap();
                panic!("injected: filler dies mid-fill");
            })
        };
        assert!(poisoner.join().is_err());
        assert!(slot.result.is_poisoned());
        match slot.wait() {
            Err(DaakgError::Panicked { context, .. }) => {
                assert_eq!(context, "ingress response slot");
            }
            other => panic!("expected typed Panicked error, got {other:?}"),
        }
        // A poisoned slot that *was* filled still delivers its answer.
        let slot = Arc::new(ResponseSlot::new());
        let poisoner = {
            let slot = Arc::clone(&slot);
            std::thread::spawn(move || {
                let _guard = slot.result.lock().unwrap();
                panic!("injected");
            })
        };
        assert!(poisoner.join().is_err());
        slot.fill(Ok((
            Versioned {
                version: SnapshotVersion::of(3),
                value: vec![(2, 1.0)],
                deltas_merged: 0,
            },
            QueryMode::Exact,
        )));
        let (got, _) = slot.wait().expect("filled slot delivers despite poison");
        assert_eq!(got.version.get(), 3);
    }

    /// A backend whose behavior the chaos tests script: panics on listed
    /// ids, optionally stalls until released, answers `(e1, e1 as f32)`.
    struct ChaosBackend {
        version: u64,
        panic_on: Vec<u32>,
        has_index: bool,
        /// When present, `query_batch`/`query` block until this gate is
        /// opened — lets tests pile up a queue deterministically.
        gate: Option<Arc<(Mutex<bool>, Condvar)>>,
        /// How long each `query_batch` takes to execute.
        exec: Duration,
        /// Every completed `query_batch` call: (start, end, batch size),
        /// the time held at the gate included.
        dispatches: Mutex<Vec<(Instant, Instant, usize)>>,
    }

    impl ChaosBackend {
        fn answering(version: u64) -> Self {
            Self {
                version,
                panic_on: Vec::new(),
                has_index: false,
                gate: None,
                exec: Duration::ZERO,
                dispatches: Mutex::new(Vec::new()),
            }
        }

        fn paced(exec: Duration) -> Self {
            Self {
                exec,
                ..Self::answering(1)
            }
        }

        fn gated() -> (Self, Arc<(Mutex<bool>, Condvar)>) {
            let gate = Arc::new((Mutex::new(false), Condvar::new()));
            let backend = Self {
                gate: Some(Arc::clone(&gate)),
                ..Self::answering(1)
            };
            (backend, gate)
        }

        fn wait_gate(&self) {
            if let Some(gate) = &self.gate {
                let (open, released) = &**gate;
                let mut open = open.lock().unwrap();
                while !*open {
                    open = released.wait(open).unwrap();
                }
            }
        }

        fn answer(&self, e1: u32) -> Ranking {
            if self.panic_on.contains(&e1) {
                panic!("injected panic on query {e1}");
            }
            vec![(e1, e1 as f32)]
        }
    }

    fn open_gate(gate: &Arc<(Mutex<bool>, Condvar)>) {
        let (open, released) = &**gate;
        *open.lock().unwrap() = true;
        released.notify_all();
    }

    impl IngressBackend for ChaosBackend {
        fn query(&self, e1: u32, _opts: QueryOptions) -> Result<Versioned<Ranking>, DaakgError> {
            self.wait_gate();
            Ok(Versioned {
                version: SnapshotVersion::of(self.version),
                value: self.answer(e1),
                deltas_merged: 0,
            })
        }

        fn query_batch(
            &self,
            queries: &[u32],
            _opts: QueryOptions,
        ) -> Result<Versioned<Vec<Ranking>>, DaakgError> {
            let start = Instant::now();
            self.wait_gate();
            std::thread::sleep(self.exec);
            let value = queries.iter().map(|&q| self.answer(q)).collect();
            self.dispatches
                .lock()
                .unwrap()
                .push((start, Instant::now(), queries.len()));
            Ok(Versioned {
                version: SnapshotVersion::of(self.version),
                value,
                deltas_merged: 0,
            })
        }

        fn has_index(&self) -> bool {
            self.has_index
        }
    }

    /// Tentpole chaos property: a panicking query becomes a typed error
    /// to its own waiter; the worker thread survives; every peer in the
    /// same batch still gets its exact answer.
    #[test]
    fn panicking_query_is_isolated_to_its_own_waiter() {
        let (gated, gate) = ChaosBackend::gated();
        let backend = Arc::new(ChaosBackend {
            panic_on: vec![5],
            ..gated
        });
        let ingress = Arc::new(Ingress::start(
            IngressConfig {
                max_batch: 16,
                ..IngressConfig::default()
            },
            backend,
            &Telemetry::default(),
        ));
        // Hold one dispatch at the gate while ten peers queue behind it,
        // so query 5 shares its batch with the nine others.
        let first = {
            let ingress = Arc::clone(&ingress);
            std::thread::spawn(move || ingress.submit(100, QueryOptions::rank()))
        };
        while ingress.stats().batches == 0 {
            std::thread::yield_now();
        }
        let waiters: Vec<_> = (0..10u32)
            .map(|q| {
                let ingress = Arc::clone(&ingress);
                std::thread::spawn(move || (q, ingress.submit(q, QueryOptions::rank())))
            })
            .collect();
        while ingress.stats().queries < 11 {
            std::thread::yield_now();
        }
        open_gate(&gate);
        first.join().unwrap().expect("the held query is answered");
        for waiter in waiters {
            let (q, outcome) = waiter.join().expect("client thread survives");
            if q == 5 {
                match outcome {
                    Err(DaakgError::Panicked { context, message }) => {
                        assert_eq!(context, "ingress batch");
                        assert!(message.contains("injected panic on query 5"));
                    }
                    other => panic!("query 5 expected Panicked, got {other:?}"),
                }
            } else {
                let (answer, served) = outcome.expect("peer gets its answer");
                assert_eq!(answer.value, vec![(q, q as f32)], "peer q={q}");
                assert_eq!(served, QueryMode::Exact);
            }
        }
        let stats = ingress.stats();
        assert_eq!(stats.panics, 1);
        assert_eq!(stats.batches, 2, "query 5 shared one batch with its peers");
        // The worker survived: the ingress keeps serving.
        let (after, _) = ingress
            .submit(2, QueryOptions::rank())
            .expect("still alive");
        assert_eq!(after.value, vec![(2, 2.0)]);
        assert_eq!(ingress.stats().panics, 1);
    }

    /// Admission control: with the worker stalled and the queue full,
    /// further submissions fail fast with `Overloaded`; nothing hangs.
    #[test]
    fn full_queue_rejects_admissions_with_overloaded() {
        let (backend, gate) = ChaosBackend::gated();
        let cfg = IngressConfig {
            max_batch: 1,
            max_queue: 4,
            degrade: None,
        };
        let ingress = Arc::new(Ingress::start(
            cfg,
            Arc::new(backend),
            &Telemetry::default(),
        ));
        // First query occupies the worker (stalled at the gate).
        let first = {
            let ingress = Arc::clone(&ingress);
            std::thread::spawn(move || ingress.submit(0, QueryOptions::rank()))
        };
        // Wait until the worker picked it up (queue drained to empty).
        while ingress.stats().batches == 0 {
            std::thread::yield_now();
        }
        // Fill the queue to capacity, then one more: rejected.
        let queued: Vec<_> = (1..=4u32)
            .map(|q| {
                let ingress = Arc::clone(&ingress);
                std::thread::spawn(move || ingress.submit(q, QueryOptions::rank()))
            })
            .collect();
        while ingress.stats().queries < 5 {
            std::thread::yield_now();
        }
        match ingress.submit_ticket(9, QueryOptions::rank()) {
            Err(DaakgError::Overloaded { queued, capacity }) => {
                assert_eq!(queued, 4);
                assert_eq!(capacity, 4);
            }
            other => panic!(
                "expected Overloaded, got {:?}",
                other.map(|_| "PendingAnswer")
            ),
        }
        let stats = ingress.stats();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.max_depth, 4);
        open_gate(&gate);
        first.join().unwrap().expect("first answered");
        for waiter in queued {
            waiter
                .join()
                .unwrap()
                .expect("queued answered after release");
        }
    }

    /// Deadline semantics: zero deadlines shed at admission, queued
    /// queries whose deadline lapses shed at dequeue, and deadlines
    /// longer than the waiting time answer normally.
    #[test]
    fn deadlines_shed_at_admission_and_dequeue() {
        // Zero deadline: typed shed at admission, nothing enqueued.
        let ingress = Ingress::start(
            IngressConfig::default(),
            Arc::new(ChaosBackend::answering(1)),
            &Telemetry::default(),
        );
        match ingress.submit(0, QueryOptions::rank().with_deadline(Duration::ZERO)) {
            Err(DaakgError::DeadlineExceeded { deadline, waited }) => {
                assert!(deadline.is_zero());
                assert!(waited.is_zero());
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let stats = ingress.stats();
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.queries, 0);
        drop(ingress);

        // Queued past its deadline: shed at dequeue once the stalled
        // worker gets back to the queue.
        let (backend, gate) = ChaosBackend::gated();
        let cfg = IngressConfig {
            max_batch: 1,
            ..IngressConfig::default()
        };
        let ingress = Arc::new(Ingress::start(
            cfg,
            Arc::new(backend),
            &Telemetry::default(),
        ));
        let first = {
            let ingress = Arc::clone(&ingress);
            std::thread::spawn(move || ingress.submit(0, QueryOptions::rank()))
        };
        while ingress.stats().batches == 0 {
            std::thread::yield_now();
        }
        let doomed = {
            let ingress = Arc::clone(&ingress);
            std::thread::spawn(move || {
                ingress.submit(
                    1,
                    QueryOptions::rank().with_deadline(Duration::from_millis(1)),
                )
            })
        };
        while ingress.stats().queries < 2 {
            std::thread::yield_now();
        }
        // Hold the gate well past the 1 ms deadline, then release.
        std::thread::sleep(Duration::from_millis(20));
        open_gate(&gate);
        first.join().unwrap().expect("undeadlined query answered");
        match doomed.join().unwrap() {
            Err(DaakgError::DeadlineExceeded { deadline, waited }) => {
                assert_eq!(deadline, Duration::from_millis(1));
                assert!(waited >= deadline);
            }
            other => panic!("expected dequeue-time DeadlineExceeded, got {other:?}"),
        }
        assert_eq!(ingress.stats().expired, 1);

        // Deadline comfortably above the wait: answers normally.
        let (answer, _) = ingress
            .submit(
                3,
                QueryOptions::rank().with_deadline(Duration::from_secs(30)),
            )
            .expect("loose deadline answers");
        assert_eq!(answer.value, vec![(3, 3.0)]);
    }

    /// Degradation engages at the high watermark, stamps answers with
    /// the mode actually served, and disengages at the low watermark
    /// (hysteresis) — and only for index-carrying backends.
    #[test]
    fn degradation_engages_with_hysteresis_and_stamps_served_mode() {
        let (mut backend, gate) = ChaosBackend::gated();
        backend.has_index = true;
        let cfg = IngressConfig {
            max_batch: 1,
            max_queue: 1024,
            degrade: Some(DegradePolicy {
                high_watermark: 4,
                low_watermark: 1,
                nprobe: 1,
            }),
        };
        let ingress = Arc::new(Ingress::start(
            cfg,
            Arc::new(backend),
            &Telemetry::default(),
        ));
        // Stall the worker on a first query, then pile 8 Exact queries
        // behind it: the next drain observes depth 8, past the high
        // watermark, and engages degradation.
        let first = {
            let ingress = Arc::clone(&ingress);
            std::thread::spawn(move || ingress.submit(100, QueryOptions::rank()))
        };
        while ingress.stats().batches == 0 {
            std::thread::yield_now();
        }
        let waiters: Vec<_> = (0..8u32)
            .map(|q| {
                let ingress = Arc::clone(&ingress);
                std::thread::spawn(move || ingress.submit(q, QueryOptions::rank()))
            })
            .collect();
        while ingress.stats().queries < 9 {
            std::thread::yield_now();
        }
        open_gate(&gate);
        // The stalled query was dispatched before pressure built: Exact.
        let (_, first_served) = first.join().unwrap().expect("first answered");
        assert_eq!(first_served, QueryMode::Exact);
        let mut degraded_answers = 0;
        for waiter in waiters {
            let (answer, served) = waiter.join().unwrap().expect("answered");
            assert_eq!(answer.value.len(), 1);
            if served == (QueryMode::Approx { nprobe: 1 }) {
                degraded_answers += 1;
            } else {
                assert_eq!(served, QueryMode::Exact);
            }
        }
        assert!(
            degraded_answers > 0,
            "high watermark crossed but nothing was served degraded"
        );
        assert_eq!(ingress.stats().degraded, degraded_answers);
        // Light traffic drains the queue below the low watermark: the
        // policy disengages and answers are Exact again.
        let mut disengaged = false;
        for q in 0..20u32 {
            let (_, served) = ingress.submit(q, QueryOptions::rank()).expect("answered");
            if served == QueryMode::Exact {
                disengaged = true;
                break;
            }
        }
        assert!(
            disengaged,
            "policy never disengaged after the queue drained"
        );
        assert!(!ingress.degrade_engaged());
    }

    /// Without an index there is no cheaper mode: the policy may engage
    /// but every answer stays Exact.
    #[test]
    fn degradation_never_downgrades_indexless_backends() {
        let (backend, gate) = ChaosBackend::gated();
        assert!(!backend.has_index);
        let cfg = IngressConfig {
            max_batch: 1,
            max_queue: 1024,
            degrade: Some(DegradePolicy {
                high_watermark: 2,
                low_watermark: 1,
                nprobe: 1,
            }),
        };
        let ingress = Arc::new(Ingress::start(
            cfg,
            Arc::new(backend),
            &Telemetry::default(),
        ));
        let first = {
            let ingress = Arc::clone(&ingress);
            std::thread::spawn(move || ingress.submit(100, QueryOptions::rank()))
        };
        while ingress.stats().batches == 0 {
            std::thread::yield_now();
        }
        let waiters: Vec<_> = (0..6u32)
            .map(|q| {
                let ingress = Arc::clone(&ingress);
                std::thread::spawn(move || ingress.submit(q, QueryOptions::rank()))
            })
            .collect();
        while ingress.stats().queries < 7 {
            std::thread::yield_now();
        }
        open_gate(&gate);
        first.join().unwrap().expect("first answered");
        for waiter in waiters {
            let (_, served) = waiter.join().unwrap().expect("answered");
            assert_eq!(served, QueryMode::Exact);
        }
        assert_eq!(ingress.stats().degraded, 0);
    }

    /// Shutdown semantics: dropping the ingress with queries in flight
    /// drains them — every outstanding waiter gets a real answer within
    /// the drain window. No hangs, no lost answers. The worker is
    /// stalled behind a gate when shutdown begins, so the drain window
    /// genuinely overlaps outstanding waiters.
    #[test]
    fn drop_under_load_drains_every_outstanding_ticket() {
        let (backend, gate) = ChaosBackend::gated();
        let cfg = IngressConfig {
            max_batch: 1,
            ..IngressConfig::default()
        };
        let ingress = Ingress::start(cfg, Arc::new(backend), &Telemetry::default());
        let tickets: Vec<_> = (0..8u32)
            .map(|q| {
                (
                    q,
                    ingress
                        .submit_ticket(q, QueryOptions::rank())
                        .expect("admitted"),
                )
            })
            .collect();
        // Release the stalled worker shortly after shutdown begins;
        // `drop` blocks joining the worker until then.
        let opener = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            open_gate(&gate);
        });
        drop(ingress);
        opener.join().expect("opener");
        for (q, ticket) in tickets {
            let answer = ticket.wait().expect("drained ticket gets its real answer");
            assert_eq!(answer.value, vec![(q, q as f32)], "q={q}");
        }
    }

    /// Submissions after shutdown began fail with a typed shutdown
    /// error, and a pending query discarded without an answer wakes its
    /// waiter typed instead of hanging it.
    #[test]
    fn shutdown_is_typed_never_a_hang() {
        let ingress = Ingress::start(
            IngressConfig::default(),
            Arc::new(ChaosBackend::answering(1)),
            &Telemetry::default(),
        );
        // Force the shutdown flag the way Drop does, then submit.
        lock_recover(&ingress.shared.queue).shutdown = true;
        match ingress.submit_ticket(0, QueryOptions::rank()) {
            Err(DaakgError::Shutdown { context }) => assert_eq!(context, "ingress"),
            other => panic!(
                "expected Shutdown, got {:?}",
                other.map(|_| "PendingAnswer")
            ),
        }
        // A PendingQuery dropped unanswered (the worker-death backstop)
        // delivers a typed shutdown error to its waiter.
        let slot = Arc::new(ResponseSlot::new());
        let pending = PendingQuery {
            e1: 0,
            opts: QueryOptions::rank(),
            enqueued: Instant::now(),
            slot: Arc::clone(&slot),
        };
        drop(pending);
        match slot.wait() {
            Err(DaakgError::Shutdown { context }) => assert_eq!(context, "ingress"),
            other => panic!("expected Shutdown from drop backstop, got {other:?}"),
        }
        // Un-wedge the flag so Drop's worker join terminates.
        lock_recover(&ingress.shared.queue).shutdown = false;
        drop(ingress);
    }

    /// Closed loop: with N synchronous clients and `max_batch` N, every
    /// client comes back within one dispatch, so the derived window keeps
    /// the batches full (with no window they split).
    #[test]
    fn closed_loop_clients_coalesce_into_full_batches() {
        for clients in [2u32, 4, 8] {
            let ingress = Ingress::start(
                IngressConfig {
                    max_batch: clients as usize,
                    ..IngressConfig::default()
                },
                Arc::new(ChaosBackend::paced(Duration::from_millis(2))),
                &Telemetry::default(),
            );
            let rounds = 50u32;
            std::thread::scope(|scope| {
                for c in 0..clients {
                    let ingress = &ingress;
                    scope.spawn(move || {
                        for r in 0..rounds {
                            let q = c * rounds + r;
                            let (answer, _) =
                                ingress.submit(q, QueryOptions::rank()).expect("answered");
                            assert_eq!(answer.value, vec![(q, q as f32)]);
                        }
                    });
                }
            });
            let stats = ingress.stats();
            assert_eq!(stats.queries, u64::from(clients * rounds));
            let mean = stats.queries as f64 / stats.batches as f64;
            assert!(
                mean >= 0.9 * f64::from(clients),
                "{clients} clients: mean batch {mean:.2} ({stats:?})"
            );
        }
    }

    /// The derived window lasts at most one dispatch: queries the worker
    /// expects but that never arrive hold a batch back for no longer than
    /// the previous dispatch took. A window that closed short expects
    /// none of its callers back, so the next query goes out at once, as
    /// does a lone query on an idle ingress.
    #[test]
    fn derived_window_waits_at_most_one_dispatch_and_never_when_idle() {
        const EXEC: Duration = Duration::from_millis(80);
        let slack = EXEC / 2;
        let (gated, gate) = ChaosBackend::gated();
        let backend = Arc::new(ChaosBackend { exec: EXEC, ..gated });
        let ingress = Ingress::start(
            IngressConfig::default(),
            Arc::clone(&backend),
            &Telemetry::default(),
        );
        // Query 0 is held at the gate while 1 and 2 queue behind it. Its
        // dispatch then leads the worker to expect three queries: its own
        // caller back, plus the two. Query 0's caller never comes back.
        let mut tickets = vec![ingress
            .submit_ticket(0, QueryOptions::rank())
            .expect("admitted")];
        while ingress.stats().batches == 0 {
            std::thread::yield_now();
        }
        for q in 1..3 {
            tickets.push(ingress.submit_ticket(q, QueryOptions::rank()).expect("admitted"));
        }
        open_gate(&gate);
        for ticket in tickets {
            ticket.wait().expect("answered");
        }
        // The pair's window closed short: query 3 right after it, and
        // query 4 after an idle spell, each go out alone at once.
        let mut lone = Vec::new();
        for q in 3..5 {
            let submitted = Instant::now();
            ingress.submit(q, QueryOptions::rank()).expect("answered");
            lone.push(submitted);
            std::thread::sleep(2 * EXEC);
        }
        let dispatches = backend.dispatches.lock().unwrap().clone();
        let sizes: Vec<usize> = dispatches.iter().map(|d| d.2).collect();
        assert_eq!(sizes, vec![1, 2, 1, 1]);
        let (start0, end0, _) = dispatches[0];
        let waited = dispatches[1].0 - end0;
        assert!(
            waited >= end0 - start0,
            "the pair went out before the window closed: {waited:?}"
        );
        assert!(
            waited <= end0 - start0 + slack,
            "the pair waited {waited:?}, past one dispatch ({:?})",
            end0 - start0
        );
        for (dispatch, submitted) in dispatches[2..].iter().zip(lone) {
            let waited = dispatch.0 - submitted;
            assert!(waited < slack, "a lone query waited {waited:?}");
        }
    }
}
