//! A bounded ring-buffer journal of structured lifecycle events.
//!
//! The journal answers "what happened, in what order?" for the control
//! plane — snapshot publishes, compaction folds, retrain supersessions,
//! overload shedding and degradation transitions, persistence retries
//! and failures, compactor panics. Events carry a **monotonic sequence
//! number** and a **monotonic timestamp** (nanoseconds since the
//! journal's creation), so causal order is recoverable even after the
//! ring wraps. Recording takes a short mutex — event sites are control
//! plane or already-exceptional paths (a shed, a persist retry), never
//! the per-query hot loop.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::metrics::duration_ns;

/// The structured payload of a journal entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A new snapshot version became current.
    SnapshotPublish {
        /// The published snapshot version.
        version: u64,
    },
    /// A compaction fold started against an anchor version.
    FoldStart {
        /// The snapshot version the pending deltas are anchored to.
        anchor: u64,
        /// How many delta entries the fold will absorb.
        pending: usize,
    },
    /// A compaction fold published its result.
    FoldDone {
        /// The snapshot version the fold produced.
        version: u64,
        /// How many delta entries were folded in.
        folded: usize,
    },
    /// A full retrain superseded live delta entries that could not be
    /// re-anchored onto the new snapshot.
    RetrainSupersede {
        /// The retrained snapshot version.
        version: u64,
        /// How many delta entries were dropped.
        dropped: usize,
    },
    /// The live delta log rolled to a freshly preallocated file.
    DeltaLogRoll {
        /// Training lineage (snapshot version) the file's rows extend.
        lineage: u64,
        /// First global right-entity id the file may hold.
        first_id: u32,
    },
    /// A delta log file was retired behind a persisted snapshot.
    DeltaLogRetire {
        /// Training lineage of the retired file.
        lineage: u64,
        /// First global right-entity id of the retired file.
        first_id: u32,
    },
    /// Ingress shed a query at admission (queue at capacity).
    QueryShed {
        /// Queue depth observed at the shed decision.
        depth: usize,
    },
    /// Ingress expired a query whose deadline passed before execution.
    DeadlineExpired,
    /// Degraded service engaged (queue crossed the high watermark).
    DegradeEngage {
        /// Queue depth at the transition.
        depth: usize,
    },
    /// Degraded service disengaged (queue fell below the low watermark).
    DegradeRecover {
        /// Queue depth at the transition.
        depth: usize,
    },
    /// A persist attempt failed and will be retried.
    PersistRetry {
        /// The snapshot version being persisted.
        version: u64,
        /// 1-based retry attempt number.
        attempt: u32,
    },
    /// Persistence exhausted its retries; durability is degraded.
    PersistFailure {
        /// The snapshot version that failed to persist.
        version: u64,
        /// The final error message.
        error: String,
    },
    /// The background compactor task panicked and was isolated.
    CompactorPanic,
}

impl EventKind {
    /// A stable snake_case name for exposition.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::SnapshotPublish { .. } => "snapshot_publish",
            EventKind::FoldStart { .. } => "fold_start",
            EventKind::FoldDone { .. } => "fold_done",
            EventKind::RetrainSupersede { .. } => "retrain_supersede",
            EventKind::DeltaLogRoll { .. } => "delta_log_roll",
            EventKind::DeltaLogRetire { .. } => "delta_log_retire",
            EventKind::QueryShed { .. } => "query_shed",
            EventKind::DeadlineExpired => "deadline_expired",
            EventKind::DegradeEngage { .. } => "degrade_engage",
            EventKind::DegradeRecover { .. } => "degrade_recover",
            EventKind::PersistRetry { .. } => "persist_retry",
            EventKind::PersistFailure { .. } => "persist_failure",
            EventKind::CompactorPanic => "compactor_panic",
        }
    }
}

/// One journal entry: a monotonic sequence number, a monotonic
/// timestamp, and the structured [`EventKind`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Position in the journal's total event stream, starting at 0 and
    /// never reused — gaps after wraparound reveal how much was evicted.
    pub seq: u64,
    /// Nanoseconds since the journal was created (monotonic clock).
    pub at_ns: u64,
    /// What happened.
    pub kind: EventKind,
}

#[derive(Debug)]
struct Ring {
    events: VecDeque<Event>,
    next_seq: u64,
    dropped: u64,
}

#[derive(Debug)]
struct JournalInner {
    epoch: Instant,
    capacity: usize,
    ring: Mutex<Ring>,
}

/// A bounded journal of [`Event`]s.
///
/// When full, recording a new event evicts the oldest one (and bumps the
/// [`EventJournal::dropped`] count). Cloning shares the ring. A journal
/// from a disabled [`crate::Telemetry`] records nothing.
#[derive(Debug, Clone, Default)]
pub struct EventJournal {
    inner: Option<Arc<JournalInner>>,
}

impl EventJournal {
    /// A journal retaining at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Some(Arc::new(JournalInner {
                epoch: Instant::now(),
                capacity: capacity.max(1),
                ring: Mutex::new(Ring {
                    events: VecDeque::new(),
                    next_seq: 0,
                    dropped: 0,
                }),
            })),
        }
    }

    /// A journal that records nothing.
    pub fn noop() -> Self {
        Self { inner: None }
    }

    /// Whether this journal retains events.
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// Append an event, evicting the oldest if the ring is full.
    pub fn record(&self, kind: EventKind) {
        let Some(inner) = &self.inner else { return };
        let at_ns = duration_ns(inner.epoch.elapsed());
        let mut ring = inner
            .ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let seq = ring.next_seq;
        ring.next_seq += 1;
        if ring.events.len() == inner.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(Event { seq, at_ns, kind });
    }

    /// All retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.inner.as_ref().map_or_else(Vec::new, |inner| {
            inner
                .ring
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .events
                .iter()
                .cloned()
                .collect()
        })
    }

    /// Retained events with `seq >= since`, oldest first — an
    /// incremental tail for pollers that remember the last seq they saw.
    pub fn events_since(&self, since: u64) -> Vec<Event> {
        let mut events = self.events();
        events.retain(|e| e.seq >= since);
        events
    }

    /// How many events have been evicted to make room.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |inner| {
            inner
                .ring
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .dropped
        })
    }

    /// Total events ever recorded (retained + dropped).
    pub fn recorded(&self) -> u64 {
        self.inner.as_ref().map_or(0, |inner| {
            inner
                .ring
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .next_seq
        })
    }

    /// A human-readable dump, one line per retained event.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            out.push_str(&format!(
                "[{:>6}] +{:>12}ns {}: {:?}\n",
                e.seq,
                e.at_ns,
                e.kind.name(),
                e.kind
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraparound_keeps_newest_and_monotonic_seqs() {
        let j = EventJournal::new(4);
        for v in 0..10u64 {
            j.record(EventKind::SnapshotPublish { version: v });
        }
        let events = j.events();
        assert_eq!(events.len(), 4);
        assert_eq!(j.dropped(), 6);
        assert_eq!(j.recorded(), 10);
        // Oldest four evicted; seqs of the survivors are 6..=9, strictly
        // increasing, timestamps non-decreasing.
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        for w in events.windows(2) {
            assert!(w[0].at_ns <= w[1].at_ns);
        }
        for (e, v) in events.iter().zip(6u64..) {
            assert_eq!(e.kind, EventKind::SnapshotPublish { version: v });
        }
    }

    #[test]
    fn events_since_tails_incrementally() {
        let j = EventJournal::new(8);
        for v in 0..5u64 {
            j.record(EventKind::SnapshotPublish { version: v });
        }
        assert_eq!(j.events_since(3).len(), 2);
        assert_eq!(j.events_since(0).len(), 5);
        assert!(j.events_since(99).is_empty());
    }

    #[test]
    fn noop_journal_records_nothing() {
        let j = EventJournal::noop();
        assert!(!j.is_active());
        j.record(EventKind::CompactorPanic);
        assert!(j.events().is_empty());
        assert_eq!(j.dropped(), 0);
        assert_eq!(j.recorded(), 0);
        assert!(j.dump().is_empty());
    }

    #[test]
    fn capacity_floor_is_one() {
        let j = EventJournal::new(0);
        j.record(EventKind::DeadlineExpired);
        j.record(EventKind::CompactorPanic);
        let events = j.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::CompactorPanic);
    }

    #[test]
    fn dump_names_every_variant() {
        let j = EventJournal::new(16);
        j.record(EventKind::QueryShed { depth: 3 });
        j.record(EventKind::DegradeEngage { depth: 8 });
        j.record(EventKind::DegradeRecover { depth: 1 });
        j.record(EventKind::PersistRetry {
            version: 2,
            attempt: 1,
        });
        j.record(EventKind::PersistFailure {
            version: 2,
            error: "disk on fire".into(),
        });
        let dump = j.dump();
        for name in [
            "query_shed",
            "degrade_engage",
            "degrade_recover",
            "persist_retry",
            "persist_failure",
        ] {
            assert!(dump.contains(name), "missing {name} in dump:\n{dump}");
        }
    }
}
