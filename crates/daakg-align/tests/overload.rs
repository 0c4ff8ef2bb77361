//! Public-API integration tests for the overload-resilience contract of
//! the sharded serving stack: bounded admission, per-query deadlines,
//! typed shutdown, and opt-in graceful degradation.
//!
//! Everything here goes through `ShardedService` exactly as an embedding
//! application would — no crate internals, no test-only backends. The
//! fully deterministic chaos coverage (gated workers, injected panics)
//! lives in the `ingress` module's unit tests; these tests prove the
//! same guarantees hold end to end on the real scatter-gather backend.

use daakg_align::{
    AlignmentService, DegradePolicy, IngressConfig, JointConfig, QueryMode, QueryOptions,
    ServingConfig, ShardedService,
};
use daakg_embed::EmbedConfig;
use daakg_graph::kg::{example_dbpedia, example_wikidata};
use daakg_graph::DaakgError;
use std::sync::Arc;
use std::time::Duration;

fn tiny_cfg() -> JointConfig {
    JointConfig {
        embed: EmbedConfig {
            dim: 8,
            class_dim: 4,
            epochs: 2,
            batch_size: 16,
            ..EmbedConfig::default()
        },
        align_epochs: 3,
        ..JointConfig::default()
    }
}

fn service(serving: ServingConfig) -> AlignmentService {
    AlignmentService::with_serving(
        tiny_cfg(),
        serving,
        Arc::new(example_dbpedia()),
        Arc::new(example_wikidata()),
    )
    .expect("example service")
}

fn sharded(ingress: IngressConfig) -> ShardedService {
    ShardedService::with_ingress(service(ServingConfig::default()), 2, ingress)
        .expect("sharded service")
}

/// Flooding a one-slot queue from a tight loop must reject the excess
/// with a typed `Overloaded` — and every *accepted* ticket must still be
/// answered, bitwise-identical to the snapshot oracle. Nothing is lost,
/// nothing panics, the books balance exactly.
#[test]
fn flood_sheds_typed_overloaded_and_loses_no_accepted_answers() {
    let svc = sharded(IngressConfig {
        max_batch: 1,
        max_queue: 1,
        ..IngressConfig::default()
    });
    let mut tickets = Vec::new();
    let mut shed = 0u64;
    // The submit loop runs orders of magnitude faster than a worker
    // wakeup, so a one-slot queue overflows almost immediately; the
    // attempt cap only bounds the test if a scheduler stall lets the
    // worker keep pace forever.
    for _ in 0..50_000 {
        match svc.submit(0, QueryOptions::top_k(3)) {
            Ok(ticket) => tickets.push(ticket),
            Err(DaakgError::Overloaded { queued, capacity }) => {
                assert_eq!(capacity, 1);
                assert!(queued >= capacity, "rejected below capacity");
                shed += 1;
            }
            Err(e) => panic!("unexpected admission error: {e}"),
        }
        if shed > 0 && tickets.len() >= 8 {
            break;
        }
    }
    assert!(shed > 0, "the flood never filled a one-slot queue");

    let accepted = tickets.len() as u64;
    let current = svc.service().current();
    let oracle = current.snapshot.top_k_entities(0, 3);
    for ticket in tickets {
        let ans = ticket.wait().expect("accepted queries are served");
        assert_eq!(ans.version, current.version);
        assert_eq!(ans.value.len(), oracle.len());
        for (want, got) in oracle.iter().zip(&ans.value) {
            assert_eq!(want.0, got.0);
            assert_eq!(want.1.to_bits(), got.1.to_bits());
        }
    }
    let stats = svc.ingress_stats().expect("ingress running");
    assert_eq!(stats.queries, accepted);
    assert_eq!(stats.shed, shed);
    assert_eq!(stats.expired, 0);
    assert_eq!(stats.panics, 0);
    assert!(stats.max_depth <= 1);
}

/// A zero deadline can never be met: it is shed synchronously at
/// admission — the queue and the worker never see it.
#[test]
fn zero_deadline_is_shed_at_admission() {
    let svc = sharded(IngressConfig::default());
    let err = svc
        .query(0, QueryOptions::top_k(3).with_deadline(Duration::ZERO))
        .unwrap_err();
    match err {
        DaakgError::DeadlineExceeded { deadline, waited } => {
            assert_eq!(deadline, Duration::ZERO);
            assert_eq!(waited, Duration::ZERO);
        }
        e => panic!("expected DeadlineExceeded, got {e}"),
    }
    let stats = svc.ingress_stats().expect("ingress running");
    assert_eq!(stats.expired, 1);
    assert_eq!(stats.queries, 0, "a shed query is never admitted");
}

/// A deadline that has certainly elapsed by dequeue time (1ns is shorter
/// than any worker wakeup) is admitted but shed when the worker drains
/// it, reporting how long the query actually waited.
#[test]
fn already_expired_deadline_is_shed_at_dequeue() {
    let svc = sharded(IngressConfig::default());
    let err = svc
        .query(
            0,
            QueryOptions::top_k(3).with_deadline(Duration::from_nanos(1)),
        )
        .unwrap_err();
    match err {
        DaakgError::DeadlineExceeded { deadline, waited } => {
            assert_eq!(deadline, Duration::from_nanos(1));
            assert!(waited >= deadline, "shed before the deadline elapsed");
        }
        e => panic!("expected DeadlineExceeded, got {e}"),
    }
    let stats = svc.ingress_stats().expect("ingress running");
    assert_eq!(stats.expired, 1);
    assert_eq!(stats.queries, 1, "the query was admitted, then shed");
}

/// A deadline far beyond one dispatch is inert: the batching window
/// lasts at most one dispatch, so queueing delay under light load is
/// bounded by about two, nothing expires and every answer arrives.
#[test]
fn deadline_longer_than_one_dispatch_never_sheds() {
    let svc = sharded(IngressConfig {
        max_batch: 4,
        ..IngressConfig::default()
    });
    for _ in 0..16 {
        svc.query(
            0,
            QueryOptions::top_k(3).with_deadline(Duration::from_secs(60)),
        )
        .expect("a 60s deadline never sheds under light load");
    }
    let stats = svc.ingress_stats().expect("ingress running");
    assert_eq!(stats.queries, 16);
    assert_eq!(stats.expired, 0);
    assert_eq!(stats.shed, 0);
}

/// Dropping the service with tickets still in flight must resolve every
/// one of them — served for real or failed with a typed `Shutdown` —
/// and must never leave a waiter hanging. (A hang here fails the suite
/// via the harness timeout; there is deliberately no sleep to mask one.)
#[test]
fn shutdown_resolves_every_outstanding_ticket() {
    let svc = sharded(IngressConfig {
        max_batch: 1,
        max_queue: 64,
        ..IngressConfig::default()
    });
    let tickets: Vec<_> = (0..32)
        .map(|_| {
            svc.submit(0, QueryOptions::top_k(3))
                .expect("queue has room for the burst")
        })
        .collect();
    drop(svc);
    let (mut served, mut shut_down) = (0usize, 0usize);
    for ticket in tickets {
        match ticket.wait() {
            Ok(ans) => {
                assert_eq!(ans.version.get(), 1);
                served += 1;
            }
            Err(DaakgError::Shutdown { .. }) => shut_down += 1,
            Err(e) => panic!("expected an answer or Shutdown, got {e}"),
        }
    }
    assert_eq!(served + shut_down, 32, "every ticket resolved exactly once");
}

/// Without an explicit `DegradePolicy`, overload pressure must never
/// change what is served: every answer under a sustained flood is still
/// stamped `Exact`, the degraded counter stays zero, and health never
/// reports an engaged policy — even though the backend has an index a
/// policy *could* have used.
#[test]
fn degradation_never_engages_without_explicit_policy() {
    let svc = ShardedService::with_ingress(
        service(ServingConfig::with_index(2)),
        2,
        IngressConfig {
            max_batch: 1,
            max_queue: 64,
            ..IngressConfig::default()
        },
    )
    .expect("sharded service");
    for _round in 0..8 {
        let tickets: Vec<_> = (0..16)
            .map(|_| {
                svc.submit(0, QueryOptions::top_k(3))
                    .expect("queue has room for the burst")
            })
            .collect();
        for ticket in tickets {
            let answer = ticket.wait_served().expect("served");
            assert_eq!(answer.served, QueryMode::Exact);
        }
    }
    let stats = svc.ingress_stats().expect("ingress running");
    assert_eq!(stats.degraded, 0);
    assert!(!svc.health().degrade_engaged);
}

/// With a policy configured, backlog beyond the high watermark degrades
/// `Exact` requests to `Approx` — visibly, via the stamped served mode —
/// and once the backlog drains below the low watermark, serving returns
/// to `Exact` (hysteresis, both directions).
#[test]
fn degradation_engages_under_pressure_and_recovers() {
    let svc = ShardedService::with_ingress(
        service(ServingConfig::with_index(2)),
        2,
        IngressConfig {
            max_batch: 1,
            max_queue: 64,
            degrade: Some(DegradePolicy {
                high_watermark: 2,
                low_watermark: 1,
                nprobe: 1,
            }),
        },
    )
    .expect("sharded service");

    let mut saw_degraded = false;
    'pressure: for _round in 0..200 {
        let tickets: Vec<_> = (0..16)
            .map(|_| {
                svc.submit(0, QueryOptions::top_k(3))
                    .expect("queue has room for the burst")
            })
            .collect();
        for ticket in tickets {
            let answer = ticket.wait_served().expect("served");
            match answer.served {
                QueryMode::Exact => {}
                QueryMode::Approx { nprobe } => {
                    assert_eq!(nprobe, 1, "degraded probes come from the policy");
                    assert!(!answer.value.is_empty(), "a degraded answer still answers");
                    saw_degraded = true;
                }
            }
        }
        if saw_degraded {
            break 'pressure;
        }
    }
    assert!(
        saw_degraded,
        "a 16-deep burst against a max_batch=1 worker never crossed watermark 2"
    );
    assert!(svc.ingress_stats().expect("ingress running").degraded > 0);

    // Serial traffic keeps the observed depth at 1 (== low watermark),
    // so the policy must disengage and stamp `Exact` again.
    let mut exact_again = false;
    for _ in 0..200 {
        let answer = svc.query_served(0, QueryOptions::top_k(3)).expect("served");
        if answer.served == QueryMode::Exact {
            exact_again = true;
            break;
        }
    }
    assert!(exact_again, "hysteresis never released the degraded mode");
    assert!(!svc.health().degrade_engaged);
}
