//! `campaign`: the paper's job end to end (Alg. 1). A service is built on a
//! synthetic KG pair, seeded with 1% of the gold matches, and driven through
//! inference-power rounds of select → label → infer → fine-tune → evaluate.
//! The finished service then answers one top-10 query per gold left entity.
//!
//! The untraced run times `ActiveLoop::run_service`. The traced run composes
//! the same loop from the public layer functions, timing each call, and
//! checks that the composition reproduces `run_service`'s cost curve bit
//! for bit.

use crate::report::{median, millis, secs, EndToEnd, Layers, Report};
use crate::Args;
use daakg::active::driver::evaluate_alignment;
use daakg::active::{generate_candidates, select_batch, Oracle, PowerContext};
use daakg::eval::{CostCurve, CostPoint};
use daakg::graph::{ElementPair, EntityId, FxHashSet};
use daakg::infer::KnownMatches;
use daakg::{
    ActiveConfig, ActiveLoop, AlignmentService, GoldAlignment, GoldOracle, InferenceEngine,
    KnowledgeGraph, LabeledMatches, Pipeline, QueryOptions, RelationMatches, Strategy,
    TelemetryConfig,
};
use daakg_bench::synth::{synthetic_pair, SynthSpec};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

struct Sizes {
    entities: usize,
    rounds: usize,
    batch: usize,
}

impl Sizes {
    fn of(args: &Args) -> Self {
        if args.smoke {
            Self {
                entities: 400,
                rounds: 3,
                batch: 10,
            }
        } else {
            Self {
                entities: 3000,
                rounds: 12,
                batch: 25,
            }
        }
    }
}

const DANGLING: f64 = 0.15;
const TOP_K: usize = 10;

struct Inputs {
    kg1: Arc<KnowledgeGraph>,
    kg2: Arc<KnowledgeGraph>,
    gold: GoldAlignment,
    rels: RelationMatches,
    initial: LabeledMatches,
    /// The read phase's query order: every gold left entity, shuffled.
    reads: Vec<u32>,
}

fn inputs(sizes: &Sizes, seed: u64) -> Inputs {
    let (kg1, kg2, gold) = synthetic_pair(SynthSpec::with_entities(sizes.entities, seed), DANGLING);
    // The generator mirrors relation `r{i}` as `s{i}`: that is the gold
    // schema alignment inference fires through.
    let mut rels = RelationMatches::new();
    for r1 in kg1.relations() {
        if let Some(r2) = kg2.relation_by_name(&format!("s{}", r1.raw())) {
            rels.insert(r1.raw(), r2.raw());
        }
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
    let mut matches = gold.entity_matches();
    matches.shuffle(&mut rng);
    let mut initial = LabeledMatches::new();
    for &(l, r) in matches.iter().take((matches.len() / 100).max(1)) {
        initial.push(ElementPair::Entity(l, r));
    }
    let reads = matches.iter().map(|&(l, _)| l.raw()).collect();
    Inputs {
        kg1: Arc::new(kg1),
        kg2: Arc::new(kg2),
        gold,
        rels,
        initial,
        reads,
    }
}

fn active_config(sizes: &Sizes, seed: u64) -> ActiveConfig {
    ActiveConfig {
        rounds: sizes.rounds,
        batch_size: sizes.batch,
        seed,
        ..ActiveConfig::default()
    }
}

/// Hand the KGs to `Pipeline` and return the ready service, timed.
fn setup(
    inp: &Inputs,
    cfg: ActiveConfig,
    args: &Args,
    telemetry: TelemetryConfig,
) -> (AlignmentService, ActiveLoop, f64) {
    let t = Instant::now();
    let (svc, active) = Pipeline::builder()
        .kg1(Arc::clone(&inp.kg1))
        .kg2(Arc::clone(&inp.kg2))
        .seed(args.seed)
        .threads(args.threads)
        .active(cfg)
        .strategy(Strategy::InferencePower)
        .telemetry(telemetry)
        .build_active()
        .expect("valid campaign pipeline");
    (svc, active, secs(t))
}

/// The finished service answers a top-10 query for every gold left
/// entity as one batch, [`SWEEPS`] times; the first sweep is checked
/// against the exact snapshot scan.
struct Reads {
    sweeps_ms: Vec<f64>,
    qps: f64,
    failed: u64,
    oracle_ok: bool,
}

const SWEEPS: usize = 20;

fn read_phase(svc: &AlignmentService, reads: &[u32]) -> Reads {
    let mut sweeps_ms = Vec::with_capacity(SWEEPS);
    let mut failed = 0;
    let mut oracle_ok = true;
    for i in 0..SWEEPS {
        let t = Instant::now();
        match svc.query_batch(reads, QueryOptions::top_k(TOP_K)) {
            Ok(ans) => {
                sweeps_ms.push(millis(t));
                if i == 0 {
                    let snap = svc.snapshot_at(ans.version).expect("retained version");
                    let want = snap.snapshot.top_k_entities_block(reads, TOP_K);
                    oracle_ok = want.iter().zip(&ans.value).all(|(w, g)| bitwise_eq(w, g));
                }
            }
            Err(_) => failed += reads.len() as u64,
        }
    }
    let qps = reads.len() as f64 / (median(&sweeps_ms) / 1e3);
    Reads {
        sweeps_ms,
        qps,
        failed,
        oracle_ok,
    }
}

pub fn bitwise_eq(a: &[(u32, f32)], b: &[(u32, f32)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

fn same_curve(a: &CostCurve, b: &CostCurve) -> bool {
    a.len() == b.len()
        && a.points().iter().zip(b.points()).all(|(p, q)| {
            (p.questions, p.labeled, p.inferred) == (q.questions, q.labeled, q.inferred)
                && p.h1.to_bits() == q.h1.to_bits()
                && p.mrr.to_bits() == q.mrr.to_bits()
        })
}

fn check_curve(report: &mut Report, curve: &CostCurve, sizes: &Sizes) {
    let questions = curve.total_questions();
    report.check(
        questions > 0 && questions <= sizes.rounds * sizes.batch,
        format!("campaign spent {questions} questions of a {} budget", sizes.rounds * sizes.batch),
    );
    report.check(
        curve
            .points()
            .iter()
            .all(|p| (0.0..=1.0).contains(&p.h1) && p.mrr + 1e-9 >= p.h1),
        "cost curve H@1 within [0, 1] and MRR >= H@1",
    );
}

fn run_service(svc: &AlignmentService, active: &ActiveLoop, inp: &Inputs) -> CostCurve {
    let mut oracle = GoldOracle::new(&inp.gold);
    active
        .run_service(svc, &inp.rels, &mut oracle, &inp.gold, &inp.initial)
        .expect("campaign runs")
}

pub fn run(args: &Args) -> Report {
    let sizes = Sizes::of(args);
    let inp = inputs(&sizes, args.seed);
    let cfg = active_config(&sizes, args.seed);
    let mut report = Report::default();
    if args.trace {
        traced(args, &sizes, &inp, cfg, &mut report);
        return report;
    }

    let mut setups = Vec::new();
    let mut campaigns_ms = Vec::new();
    let mut curves: Vec<CostCurve> = Vec::new();
    let mut sweeps_ms = Vec::new();
    let mut read_qps = Vec::new();
    let (mut read_sent, mut read_failed) = (0u64, 0u64);
    let t_run = Instant::now();
    while curves.is_empty() || secs(t_run) < args.seconds {
        let (svc, active, setup_s) = setup(&inp, cfg, args, TelemetryConfig::disabled());
        setups.push(setup_s);
        let t = Instant::now();
        let curve = run_service(&svc, &active, &inp);
        campaigns_ms.push(millis(t));
        let reads = read_phase(&svc, &inp.reads);
        report.check(reads.oracle_ok, "read answers equal the exact snapshot scan");
        read_sent += (SWEEPS * inp.reads.len()) as u64;
        read_failed += reads.failed;
        sweeps_ms.extend(reads.sweeps_ms);
        read_qps.push(reads.qps);
        check_curve(&mut report, &curve, &sizes);
        if let Some(first) = curves.first() {
            report.check(
                same_curve(first, &curve),
                "campaigns at one seed and thread count give identical cost curves",
            );
        }
        curves.push(curve);
        // Set-up takes milliseconds here: take many, spread over the run,
        // so one noisy moment moves few of them.
        for _ in 0..3 * crate::serve::SETUPS {
            setups.push(setup(&inp, cfg, args, TelemetryConfig::disabled()).2);
        }
    }
    let questions: usize = curves.iter().map(CostCurve::total_questions).sum();
    report.phase("setup", setups.len() as u64, 0);
    report.phase("campaign.questions", questions as u64, 0);
    report.phase("read", read_sent, read_failed);
    let curve = &curves[0];
    println!(
        "campaign: {} runs, {} questions each, final H@1 {:.4}, final MRR {:.4}",
        curves.len(),
        curve.total_questions(),
        curve.final_h1(),
        curve.final_mrr()
    );
    EndToEnd {
        setup_s: median(&setups),
        op_p50_ms: median(&campaigns_ms),
        read_p50_ms: median(&sweeps_ms),
        max_qps: median(&read_qps),
        quality: curve.final_h1(),
    }
    .emit(&mut report);
    report
}

/// Per-call timers of the composed loop, in ms.
#[derive(Default)]
struct Spans {
    train: f64,
    fine_tune: Vec<f64>,
    candidates: f64,
    select: f64,
    closure: f64,
    eval: f64,
}

impl Spans {
    fn total(&self) -> f64 {
        self.train
            + self.fine_tune.iter().sum::<f64>()
            + self.candidates
            + self.select
            + self.closure
            + self.eval
    }
}

/// `ActiveLoop::run_service`, composed from the public layer functions
/// with every call timed.
fn composed(
    svc: &AlignmentService,
    inp: &Inputs,
    cfg: &ActiveConfig,
    layers: &mut Layers,
) -> (CostCurve, Spans) {
    let mut s = Spans::default();
    let mut labels = inp.initial.clone();
    let t = Instant::now();
    let mut snap = svc.train(&labels).expect("train").snapshot;
    s.train = millis(t);
    let engine = InferenceEngine::new(svc.kg1(), svc.kg2(), cfg.infer).expect("valid InferConfig");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut oracle = GoldOracle::new(&inp.gold);
    let mut known = KnownMatches::from_pairs(labels.entities.iter().copied());
    let mut asked: FxHashSet<(u32, u32)> = labels.entities.iter().copied().collect();
    let mut accepted_all: Vec<(u32, u32, f32)> = Vec::new();
    let (mut candidates_total, mut positives, mut inferred_total, mut accepted_total) =
        (0usize, 0usize, 0usize, 0usize);

    let mut curve = CostCurve::new();
    let evaluate = |snap: &daakg::AlignmentSnapshot, known: &KnownMatches, s: &mut Spans| {
        let t = Instant::now();
        let scores = evaluate_alignment(snap, known, &inp.gold, cfg.eval_depth);
        s.eval += millis(t);
        scores
    };
    let (h1, mrr) = evaluate(&snap, &known, &mut s);
    curve.push(CostPoint {
        questions: oracle.questions(),
        labeled: labels.entities.len(),
        inferred: 0,
        h1,
        mrr,
    });

    for _ in 0..cfg.rounds {
        let t = Instant::now();
        let candidates = generate_candidates(&snap, &known, &asked, cfg.per_query);
        s.candidates += millis(t);
        if candidates.is_empty() {
            break;
        }
        candidates_total += candidates.len();
        let ctx = PowerContext {
            engine: &engine,
            known: &known,
            rels: &inp.rels,
            sim: snap.as_ref(),
        };
        let t = Instant::now();
        let batch = select_batch(
            Strategy::InferencePower,
            &candidates,
            cfg.batch_size,
            &ctx,
            &mut rng,
        );
        s.select += millis(t);
        if batch.is_empty() {
            break;
        }
        for c in &batch {
            asked.insert((c.left, c.right));
            let answer = oracle.ask(ElementPair::Entity(
                EntityId::new(c.left),
                EntityId::new(c.right),
            ));
            if answer.is_match() {
                positives += 1;
                if known.insert(c.left, c.right) {
                    labels.entities.push((c.left, c.right));
                }
            }
        }
        let mut seeds: Vec<(u32, u32)> = labels.entities.clone();
        seeds.extend(accepted_all.iter().map(|&(l, r, _)| (l, r)));
        let t = Instant::now();
        let inferred = engine.closure(&seeds, &known, &inp.rels, snap.as_ref());
        s.closure += millis(t);
        inferred_total += inferred.len();
        let mut newly_accepted = 0usize;
        let mut soft: Vec<(u32, u32, f32)> = Vec::new();
        for m in &inferred {
            if asked.contains(&(m.left, m.right)) {
                continue;
            }
            if m.confidence >= cfg.accept_confidence {
                if known.insert(m.left, m.right) {
                    accepted_all.push((m.left, m.right, m.confidence));
                    newly_accepted += 1;
                }
            } else {
                soft.push((m.left, m.right, m.confidence));
            }
        }
        accepted_total += newly_accepted;
        let mut injected = accepted_all.clone();
        injected.extend(soft);
        let t = Instant::now();
        snap = svc
            .fine_tune_with_inferred(&labels, &injected, cfg.accept_confidence)
            .expect("fine-tune")
            .snapshot;
        s.fine_tune.push(millis(t));
        let (h1, mrr) = evaluate(&snap, &known, &mut s);
        curve.push(CostPoint {
            questions: oracle.questions(),
            labeled: labels.entities.len(),
            inferred: newly_accepted,
            h1,
            mrr,
        });
    }

    let questions = oracle.questions();
    layers.set("joint.train_ms", s.train);
    layers.set("joint.fine_tune_ms", s.fine_tune.iter().sum());
    layers.set("joint.fine_tune_p50_ms", median(&s.fine_tune));
    layers.set("active.candidates_ms", s.candidates);
    layers.set("active.candidates", candidates_total as f64);
    layers.set("active.select_ms", s.select);
    layers.set("active.questions", questions as f64);
    layers.set("active.positive_frac", ratio(positives, questions));
    layers.set("infer.closure_ms", s.closure);
    layers.set("infer.inferred", inferred_total as f64);
    layers.set("infer.accepted_frac", ratio(accepted_total, inferred_total));
    layers.set("eval.ms", s.eval);
    layers.set("eval.final_mrr", curve.final_mrr());
    (curve, s)
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn traced(args: &Args, sizes: &Sizes, inp: &Inputs, cfg: ActiveConfig, report: &mut Report) {
    let mut layers = Layers::default();
    // Untraced reference: the program's own loop, telemetry off.
    let (svc, active, _) = setup(inp, cfg, args, TelemetryConfig::disabled());
    let t = Instant::now();
    let reference = run_service(&svc, &active, inp);
    let untraced_ms = millis(t);
    drop(svc);

    let (svc, _, _) = setup(inp, cfg, args, TelemetryConfig::default());
    let t = Instant::now();
    let (curve, spans) = composed(&svc, inp, &cfg, &mut layers);
    let traced_ms = millis(t);
    check_curve(report, &curve, sizes);
    report.check(
        same_curve(&reference, &curve),
        "traced composition reproduces ActiveLoop::run_service's cost curve bitwise",
    );
    // One single top-10 query per gold left entity: the service records
    // each exact scan in its registry.
    let failed = inp
        .reads
        .iter()
        .filter(|&&e| svc.top_k(e, TOP_K).is_err())
        .count() as u64;
    report.phase("campaign.questions", 2 * curve.total_questions() as u64, 0);
    report.phase("read", inp.reads.len() as u64, failed);
    layers.set(
        "index.exact_scan_p50_us",
        crate::report::stage_us(svc.telemetry().registry(), "stage_exact_scan_ns", 0.5),
    );
    layers.set("trace.unattributed_frac", 1.0 - spans.total() / traced_ms);
    layers.set("trace.overhead_frac", traced_ms / untraced_ms - 1.0);
    layers.emit(report);
}
