//! Open-loop load: one sender thread issues operations on a fixed
//! schedule whether or not earlier ones finished, one waiter thread
//! collects query answers. Every latency is timed from the operation's due
//! time, so a stall also charges the requests queued behind it.

use daakg::align::service::Ranking;
use daakg::{DeltaTriple, QueryOptions, ShardedService, Versioned};
use std::sync::mpsc;
use std::time::{Duration, Instant};

pub enum OpKind {
    Query { e1: u32, opts: QueryOptions },
    Upsert(Vec<DeltaTriple>),
}

/// One scheduled operation, due `due` after the start of the phase.
pub struct Op {
    pub due: Duration,
    pub kind: OpKind,
}

/// `count` operations spaced evenly at `rate` per second, starting at 0
/// (an infinite rate makes them all due at once).
pub fn even(rate: f64, count: usize, mut kind: impl FnMut(usize) -> OpKind) -> Vec<Op> {
    (0..count)
        .map(|i| Op {
            due: Duration::from_secs_f64(i as f64 / rate),
            kind: kind(i),
        })
        .collect()
}

/// Merge two schedules by due time (stable: `a` first on ties).
pub fn merge(a: Vec<Op>, b: Vec<Op>) -> Vec<Op> {
    let mut all: Vec<Op> = a.into_iter().chain(b).collect();
    all.sort_by_key(|op| op.due);
    all
}

pub struct QueryDone {
    pub e1: u32,
    pub opts: QueryOptions,
    /// Due time, seconds from the start of the phase.
    pub due_s: f64,
    pub latency_ms: f64,
    pub answer: Result<Versioned<Ranking>, String>,
}

pub struct UpsertDone {
    /// Due time, seconds from the start of the phase.
    pub due_s: f64,
    pub latency_ms: f64,
    pub id: Result<u32, String>,
    /// Pending delta depth right after the acknowledgement.
    pub depth: usize,
}

#[derive(Default)]
pub struct Outcome {
    pub queries: Vec<QueryDone>,
    pub upserts: Vec<UpsertDone>,
    /// How late the sender issued each operation, in ms.
    pub late_ms: Vec<f64>,
}

impl Outcome {
    pub fn failed_queries(&self) -> u64 {
        self.queries.iter().filter(|q| q.answer.is_err()).count() as u64
    }

    pub fn failed_upserts(&self) -> u64 {
        self.upserts.iter().filter(|u| u.id.is_err()).count() as u64
    }

    /// `(due_s, latency_ms)` of every answered query.
    pub fn query_latencies(&self) -> Vec<(f64, f64)> {
        self.queries
            .iter()
            .filter(|q| q.answer.is_ok())
            .map(|q| (q.due_s, q.latency_ms))
            .collect()
    }

    pub fn upsert_latencies(&self) -> Vec<f64> {
        self.upserts
            .iter()
            .filter(|u| u.id.is_ok())
            .map(|u| u.latency_ms)
            .collect()
    }
}

/// Saturation throughput: run `ops` (all due at once, see [`even`] with
/// an infinite rate) and divide the answers by the time until the last
/// one. Offered load exceeds capacity by construction, so this is the
/// highest rate the service sustains; keep bursts below the ingress queue
/// bound so nothing is shed.
pub fn burst_qps(svc: &ShardedService, ops: &[Op]) -> (Outcome, f64) {
    let t = Instant::now();
    let out = run(svc, ops);
    let answered = out.queries.len() as u64 - out.failed_queries();
    (out, answered as f64 / t.elapsed().as_secs_f64())
}

struct Pending {
    e1: u32,
    opts: QueryOptions,
    due: Instant,
    due_s: f64,
    ticket: daakg::PendingAnswer,
}

/// Run `ops` against `svc` and wait for every answer. Queries go through
/// the ingress (`submit`); upserts are acknowledged synchronously by the
/// sender, so the queries due behind a slow upsert are charged for it.
pub fn run(svc: &ShardedService, ops: &[Op]) -> Outcome {
    let (tx, rx) = mpsc::channel::<Pending>();
    // A short lead so the first operation is not late by thread start-up.
    let t0 = Instant::now() + Duration::from_millis(2);
    std::thread::scope(|scope| {
        let waiter = scope.spawn(move || {
            let mut done = Vec::new();
            for p in rx {
                let answer = p.ticket.wait().map_err(|e| e.to_string());
                done.push(QueryDone {
                    e1: p.e1,
                    opts: p.opts,
                    due_s: p.due_s,
                    latency_ms: p.due.elapsed().as_secs_f64() * 1e3,
                    answer,
                });
            }
            done
        });
        let mut out = Outcome::default();
        for op in ops {
            let due = t0 + op.due;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            out.late_ms
                .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            let due_s = op.due.as_secs_f64();
            match &op.kind {
                OpKind::Query { e1, opts } => match svc.submit(*e1, *opts) {
                    Ok(ticket) => tx
                        .send(Pending {
                            e1: *e1,
                            opts: *opts,
                            due,
                            due_s,
                            ticket,
                        })
                        .expect("waiter alive"),
                    Err(e) => out.queries.push(QueryDone {
                        e1: *e1,
                        opts: *opts,
                        due_s,
                        latency_ms: due.elapsed().as_secs_f64() * 1e3,
                        answer: Err(e.to_string()),
                    }),
                },
                OpKind::Upsert(triples) => {
                    let id = svc
                        .service()
                        .upsert_entity(triples)
                        .map_err(|e| e.to_string());
                    let latency_ms = due.elapsed().as_secs_f64() * 1e3;
                    let depth = svc
                        .service()
                        .live_health()
                        .map_or(0, |h| h.delta_depth);
                    out.upserts.push(UpsertDone {
                        due_s,
                        latency_ms,
                        id,
                        depth,
                    });
                }
            }
        }
        drop(tx);
        out.queries.extend(waiter.join().expect("waiter thread"));
        out
    })
}
