//! Workspace integration tests: cross-crate properties that no single
//! crate can check alone.
//!
//! The core contract verified here is the one the perf work rests on:
//! every fast path (blocked matmul, fused transpose products, batched
//! top-k ranking, parallel evaluation, and the sparse-gradient parallel
//! training engine) must agree with its naive/dense oracle on randomized
//! inputs.

use daakg::active::{ActiveConfig, GoldOracle, Strategy};
use daakg::align::joint::LabeledMatches;
use daakg::eval::ranking::RankingScores;
use daakg::eval::CostCurve;
use daakg::graph::{ElementPair, GoldAlignment, KnowledgeGraph};
use daakg::infer::{InferConfig, RelationMatches};
use daakg::{
    BatchedSimilarity, EmbedConfig, JointConfig, JointModel, Pipeline, QueryOptions, Tensor,
};
// The bench harness depends on the `daakg` facade (it drives the Pipeline
// / AlignmentService scenarios), so these tests reach it directly instead
// of through a facade re-export.
use daakg_bench::scenarios::{run_all, BenchConfig};
use daakg_bench::synth::{synthetic_pair, SynthSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = (0..rows * cols)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    Tensor::from_vec(rows, cols, data)
}

/// Reference triple-loop matmul.
fn matmul_oracle(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Tensor::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a.get(i, kk) * b.get(kk, j);
            }
            out.set(i, j, acc);
        }
    }
    out
}

#[test]
fn blocked_matmul_and_fused_products_match_oracle() {
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(seed + 500);
        let m = rng.gen_range(1usize..90);
        let k = rng.gen_range(1usize..130);
        let n = rng.gen_range(1usize..90);
        let a = random_tensor(m, k, seed);
        let b = random_tensor(k, n, seed + 100);
        let c = random_tensor(n, k, seed + 200);
        let d = random_tensor(m, n, seed + 300);

        let tol = 1e-4 * (k.max(m) as f32);
        let oracle = matmul_oracle(&a, &b);
        for (x, y) in a.matmul(&b).as_slice().iter().zip(oracle.as_slice()) {
            assert!((x - y).abs() <= tol, "matmul: {x} vs {y} (seed {seed})");
        }
        let oracle_t = matmul_oracle(&a, &c.transpose());
        for (x, y) in a
            .matmul_transpose(&c)
            .as_slice()
            .iter()
            .zip(oracle_t.as_slice())
        {
            assert!((x - y).abs() <= tol, "matmul_transpose: {x} vs {y}");
        }
        let oracle_tr = matmul_oracle(&a.transpose(), &d);
        for (x, y) in a.tr_matmul(&d).as_slice().iter().zip(oracle_tr.as_slice()) {
            assert!((x - y).abs() <= tol, "tr_matmul: {x} vs {y}");
        }
    }
}

#[test]
fn batched_top_k_matches_naive_oracle_on_random_inputs() {
    use daakg::autograd::tensor::cosine;
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(seed + 900);
        let nq = rng.gen_range(1usize..40);
        let nc = rng.gen_range(1usize..300);
        let d = rng.gen_range(2usize..48);
        let q = random_tensor(nq, d, seed + 1);
        let c = random_tensor(nc, d, seed + 2);
        let engine = BatchedSimilarity::new(&q, &c);

        let queries: Vec<u32> = (0..nq as u32).collect();
        let k = (nc / 2).max(1);
        let block = engine.top_k_block(&queries, k);
        for (qi, fast) in block.iter().enumerate() {
            // Naive oracle: full cosine scan + stable descending sort.
            let mut slow: Vec<(u32, f32)> = (0..nc as u32)
                .map(|j| (j, cosine(q.row(qi), c.row(j as usize))))
                .collect();
            slow.sort_by(|a, b| b.1.total_cmp(&a.1));
            assert_eq!(fast.len(), k.min(nc));
            for (rank, (f, s)) in fast.iter().zip(&slow).enumerate() {
                assert!(
                    (f.1 - s.1).abs() < 1e-4,
                    "seed {seed} q{qi} rank {rank}: {f:?} vs {s:?}"
                );
            }
        }
    }
}

#[test]
fn end_to_end_pipeline_aligns_synthetic_pair() {
    // A correlated KG pair with 15% dangling entities; supervise with a
    // third of the gold matches and verify the model ranks sensibly.
    let spec = SynthSpec::with_entities(120, 7);
    let (kg1, kg2, gold) = synthetic_pair(spec, 0.15);
    let matches = gold.entity_matches();
    assert!(!matches.is_empty());

    let mut labels = LabeledMatches::new();
    for (l, r) in matches.iter().take(matches.len() / 3) {
        labels.push(ElementPair::Entity(*l, *r));
    }

    let cfg = JointConfig {
        embed: EmbedConfig {
            dim: 16,
            class_dim: 4,
            epochs: 5,
            batch_size: 64,
            ..EmbedConfig::default()
        },
        align_epochs: 10,
        ..JointConfig::default()
    };
    let mut model = JointModel::new(cfg, &kg1, &kg2).unwrap();
    let snapshot = model.train(&kg1, &kg2, &labels);

    // Rankings must be complete, descending, and identical between the
    // batched path and the retained naive oracle.
    let items: Vec<(u32, Vec<u32>)> = matches
        .iter()
        .map(|&(l, r)| {
            let fast = snapshot.rank_entities(l.raw());
            let slow = snapshot.rank_entities_naive(l.raw());
            assert_eq!(fast.len(), slow.len());
            for (f, s) in fast.iter().zip(&slow) {
                assert!((f.1 - s.1).abs() < 1e-4, "batched vs naive: {f:?} {s:?}");
            }
            (r.raw(), fast.into_iter().map(|(e2, _)| e2).collect())
        })
        .collect();

    // Metrics are well-formed; the supervised model must beat the random
    // baseline (expected MRR of a random ranking ≈ ln(n)/n ≈ 0.05).
    let scores = RankingScores::from_rankings_parallel(&items);
    assert_eq!(scores.len(), matches.len());
    assert!(scores.hits_at(10) >= scores.hits_at(1));
    assert!(
        scores.mrr() > 0.1,
        "trained model no better than random: MRR {}",
        scores.mrr()
    );
}

#[test]
fn bench_harness_verifies_and_serializes() {
    let cfg = BenchConfig::quick();
    let results = run_all(&cfg);
    assert_eq!(results.len(), 16);
    for r in &results {
        if let Some(v) = r.get_flag("verified") {
            assert!(
                v,
                "{} failed oracle verification; flags {:?}, metrics {:?}",
                r.name, r.flags, r.metrics
            );
        }
    }
    let doc = daakg_bench::scenarios::results_to_json(&cfg, &results);
    let text = doc.to_pretty_string();
    assert!(text.contains("\"bench\": \"daakg-core\""));
    assert!(text.contains("rank_full"));
    assert!(text.contains("train_epoch_sparse"));
    assert!(text.contains("joint_round"));
    assert!(text.contains("active_round"));
    assert!(text.contains("ann_build"));
    assert!(text.contains("ann_top_k"));
    assert!(text.contains("\"recall\""));
    assert!(text.contains("serve_while_train"));
    assert!(text.contains("serve_sharded"));
    assert!(text.contains("persist_roundtrip"));
    assert!(text.contains("live_upsert"));
    assert!(text.contains("telemetry_overhead"));
    // The document round-trips through the parser the regression gate
    // uses, and a self-comparison reports no regression.
    let parsed = daakg_bench::JsonValue::parse(&text).expect("bench JSON must parse");
    let regressions = daakg_bench::compare_docs(&parsed, &parsed, 0.3).unwrap();
    assert!(regressions.is_empty(), "{regressions:?}");
}

#[test]
fn service_serves_oracle_exact_answers_while_training_at_scale() {
    use std::sync::atomic::{AtomicBool, Ordering};
    // Cross-crate serve-while-train: a Pipeline-built service over a
    // synthetic pair answers versioned queries from reader threads while
    // the writer publishes fresh versions; every recorded answer must
    // match the naive ranker on the exact version it was computed on.
    let spec = SynthSpec::with_entities(150, 13);
    let (kg1, kg2, gold) = synthetic_pair(spec, 0.15);
    let mut labels = LabeledMatches::from_gold(&gold);
    labels.entities.truncate(10);
    let service = Pipeline::builder()
        .kg1(kg1)
        .kg2(kg2)
        .joint(JointConfig {
            embed: EmbedConfig {
                dim: 12,
                class_dim: 4,
                epochs: 1,
                ..EmbedConfig::default()
            },
            align_epochs: 2,
            ..JointConfig::default()
        })
        .build()
        .unwrap();
    service.train(&labels).unwrap();

    let stop = AtomicBool::new(false);
    let recorded = std::thread::scope(|scope| {
        let service = &service;
        let stop = &stop;
        let readers: Vec<_> = (0..2)
            .map(|ri| {
                scope.spawn(move || {
                    let n1 = service.kg1().num_entities() as u32;
                    let mut out = Vec::new();
                    let mut q = ri as u32;
                    let mut last = 0u64;
                    loop {
                        let done = stop.load(Ordering::Relaxed);
                        let ans = service.top_k(q, 5).unwrap();
                        assert!(
                            ans.version.get() >= last,
                            "reader observed a version rollback"
                        );
                        last = ans.version.get();
                        out.push((ans.version, q, ans.value));
                        q = (q + 1) % n1;
                        if done {
                            break;
                        }
                    }
                    out
                })
            })
            .collect();
        for _ in 0..3 {
            service.align_rounds(&labels, 1).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let mut all = Vec::new();
        for r in readers {
            all.extend(r.join().unwrap());
        }
        all
    });
    assert_eq!(service.version().get(), 5, "3 publishes over version 2");
    assert!(!recorded.is_empty());
    // Deterministically sample the recordings for naive verification.
    for (version, q, top) in recorded.iter().step_by((recorded.len() / 40).max(1)) {
        let pinned = service.snapshot_at(*version).expect("version retained");
        let mut naive = pinned.snapshot.rank_entities_naive(*q);
        naive.truncate(5);
        assert_eq!(naive.len(), top.len());
        for (n, b) in naive.iter().zip(top) {
            assert!(
                (n.1 - b.1).abs() < 1e-4,
                "version {version} query {q}: naive {n:?} vs served {b:?}"
            );
        }
    }
}

#[test]
fn pipeline_surfaces_typed_errors_across_crates() {
    use daakg::DaakgError;
    // Config violations from three different crates all arrive as the one
    // workspace error type through the facade builder.
    let spec = SynthSpec::with_entities(30, 3);
    let (kg1, kg2, _) = synthetic_pair(spec, 0.0);
    let base = || Pipeline::builder().kg1(kg1.clone()).kg2(kg2.clone());

    let embed_bad = base()
        .embed(EmbedConfig {
            dim: 0,
            ..EmbedConfig::default()
        })
        .build();
    assert!(matches!(
        embed_bad,
        Err(DaakgError::InvalidConfig {
            context: "EmbedConfig",
            ..
        })
    ));
    let infer_bad = base()
        .infer(InferConfig {
            max_depth: 0,
            ..InferConfig::default()
        })
        .build();
    assert!(matches!(
        infer_bad,
        Err(DaakgError::InvalidConfig {
            context: "InferConfig",
            ..
        })
    ));
    let joint_bad = base()
        .joint(JointConfig {
            semi_threshold: 2.0,
            ..JointConfig::default()
        })
        .build();
    assert!(matches!(
        joint_bad,
        Err(DaakgError::InvalidConfig {
            context: "JointConfig",
            ..
        })
    ));
    // Out-of-bounds queries on a live service are typed, not panics.
    let service = base().dim(8).epochs(1).align_epochs(1).build().unwrap();
    let n = service.kg1().num_entities() as u32;
    assert!(matches!(
        service.rank(n + 1),
        Err(DaakgError::UnknownEntity { .. })
    ));
}

#[test]
fn sparse_backward_and_adam_match_dense_oracle_on_random_batches() {
    use daakg::autograd::{Adam, Optimizer, ParamStore, SparseGrad, TapeSession};
    // Property-style sweep: random tables, random index batches with
    // repeated gathers, sparse external-gather backward + lazy sparse
    // Adam vs the dense tape + dense Adam oracle.
    for seed in 0..5u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (rows, cols) = (rng.gen_range(4..20), rng.gen_range(2..9));
        let table = random_tensor(rows, cols, seed ^ 0xBEEF);

        let mut dense_store = ParamStore::new();
        dense_store.insert("w", table.clone());
        let mut dense_opt = Adam::with_lr(0.05);
        let mut sparse_store = ParamStore::new();
        sparse_store.insert("w", table);
        let mut sparse_opt = Adam::with_lr(0.05);

        for _step in 0..12 {
            let m = rng.gen_range(1..10);
            let mut indices: Vec<u32> = (0..m).map(|_| rng.gen_range(0..rows as u32)).collect();
            // Force a repeated index into most batches.
            if m > 1 {
                indices[m - 1] = indices[0];
            }

            // Dense oracle: leaf gather, dense grad, dense step.
            let mut gd = daakg::Graph::new();
            let leaf = gd.leaf(dense_store.get("w").clone());
            let picked = gd.gather_rows(leaf, &indices);
            let sq = gd.mul(picked, picked);
            let loss = gd.sum_all(sq);
            gd.backward(loss);
            let dense_grad = gd.grad(leaf).unwrap().clone();
            dense_opt.step(&mut dense_store, "w", &dense_grad);

            // Sparse path: refresh-before-read, external gather, sparse
            // row-gradient, lazy sparse step.
            sparse_opt.refresh_rows(&mut sparse_store, "w", &indices);
            let mut s = TapeSession::new();
            let picked = s.gather_param(&sparse_store, "w", &indices);
            let sq = s.graph.mul(picked, picked);
            let loss = s.graph.sum_all(sq);
            s.backward(loss);
            let sparse_grad: &SparseGrad = s.graph.external_grad("w").unwrap();
            assert_eq!(
                &sparse_grad.to_dense(rows),
                &dense_grad,
                "seed {seed}: sparse backward disagrees with dense scatter"
            );
            let sg = sparse_grad.clone();
            sparse_opt.step_sparse(&mut sparse_store, "w", &sg);
        }

        sparse_opt.flush(&mut sparse_store);
        let d = dense_store.get("w").as_slice();
        let p = sparse_store.get("w").as_slice();
        for (i, (a, b)) in d.iter().zip(p).enumerate() {
            assert!(
                (a - b).abs() <= 1e-5,
                "seed {seed} element {i}: dense {a} vs sparse {b}"
            );
        }
    }
}

#[test]
fn sparse_parallel_training_reaches_dense_final_loss_on_synthetic_kg() {
    use daakg::autograd::Adam;
    use daakg::embed::{EmbedTrainer, TrainMode, TransE};
    use daakg::KgEmbedding;
    // End-to-end: the sparse+parallel engine and the dense oracle train
    // the same synthetic KG to the same loss trajectory, at 1 and 3
    // shards (thread-count independence up to fp reassociation).
    let spec = SynthSpec::with_entities(150, 7);
    let (kg, _, _) = synthetic_pair(spec, 0.1);
    let run = |mode: TrainMode, threads: usize| {
        let model = TransE::new(&kg, 12);
        let mut store = daakg::ParamStore::new();
        let mut rng = StdRng::seed_from_u64(7);
        model.init_params(&mut rng, &mut store, "g.");
        let cfg = EmbedConfig {
            epochs: 3,
            batch_size: 64,
            dim: 12,
            mode,
            threads,
            ..EmbedConfig::default()
        };
        let trainer = EmbedTrainer::new(cfg).unwrap();
        let mut opt = Adam::with_lr(cfg.lr);
        trainer
            .train(&model, None, &kg, &mut store, "g.", &mut opt)
            .er_losses
    };
    let dense = run(TrainMode::Dense, 1);
    for threads in [1usize, 3] {
        let sparse = run(TrainMode::Sparse, threads);
        assert_eq!(dense.len(), sparse.len());
        for (e, (d, s)) in dense.iter().zip(&sparse).enumerate() {
            assert!(
                (d - s).abs() <= 1e-3,
                "epoch {e} at {threads} threads: dense {d} vs sparse {s}"
            );
        }
    }
}

/// A *partial* relation alignment of a `synthetic_pair`: left relation
/// `r{i}` mirrors right relation `s{i}` by construction, and only the
/// first `count` relations are aligned. Partial schema alignment is the
/// realistic regime — and the one where question placement matters, since
/// inference can only propagate through the aligned slice.
fn synthetic_relation_matches(
    kg1: &KnowledgeGraph,
    kg2: &KnowledgeGraph,
    count: usize,
) -> RelationMatches {
    let mut rels = RelationMatches::new();
    for r1 in kg1.relations().take(count) {
        if let Some(r2) = kg2.relation_by_name(&format!("s{}", r1.raw())) {
            rels.insert(r1.raw(), r2.raw());
        }
    }
    rels
}

/// Run one active-learning configuration over a synthetic pair, through
/// the Pipeline / AlignmentService entry point.
fn run_active(
    strategy: Strategy,
    kg1: &KnowledgeGraph,
    kg2: &KnowledgeGraph,
    gold: &GoldAlignment,
    rels: &RelationMatches,
    initial: &LabeledMatches,
) -> CostCurve {
    let joint_cfg = JointConfig {
        embed: EmbedConfig {
            dim: 16,
            class_dim: 4,
            epochs: 5,
            batch_size: 64,
            ..EmbedConfig::default()
        },
        align_epochs: 10,
        fine_tune_epochs: 5,
        ..JointConfig::default()
    };
    let (service, active) = Pipeline::builder()
        .kg1(kg1.clone())
        .kg2(kg2.clone())
        .joint(joint_cfg)
        .active(ActiveConfig {
            rounds: 4,
            batch_size: 10,
            infer: InferConfig::default(),
            ..ActiveConfig::default()
        })
        .strategy(strategy)
        .build_active()
        .unwrap();
    let mut oracle = GoldOracle::new(gold);
    active
        .run_service(&service, rels, &mut oracle, gold, initial)
        .unwrap()
}

#[test]
fn inference_power_selector_beats_random_at_equal_budget() {
    // The acceptance experiment of the active subsystem: on correlated
    // synthetic pairs, the inference-power selector must reach higher H@1
    // than uniform-random selection with the same question budget.
    // Averaged over several instance seeds so the comparison reflects the
    // strategy, not one training run's noise.
    let seeds = [11u64, 19, 23];
    let mut power_h1 = 0.0;
    let mut random_h1 = 0.0;
    let mut power_labeled = 0;
    let mut random_labeled = 0;
    for &seed in &seeds {
        let spec = SynthSpec::with_entities(120, seed);
        let (kg1, kg2, gold) = synthetic_pair(spec, 0.15);
        let rels = synthetic_relation_matches(&kg1, &kg2, kg1.num_relations() / 2);
        assert!(!rels.is_empty());

        let matches = gold.entity_matches();
        let mut initial = LabeledMatches::new();
        for (l, r) in matches.iter().take(matches.len() / 10) {
            initial.push(ElementPair::Entity(*l, *r));
        }

        let power = run_active(Strategy::InferencePower, &kg1, &kg2, &gold, &rels, &initial);
        let random = run_active(Strategy::Random, &kg1, &kg2, &gold, &rels, &initial);

        // Equal budget: both strategies asked the same number of questions.
        assert_eq!(power.total_questions(), random.total_questions());
        assert!(power.total_questions() > 0);
        eprintln!(
            "seed {seed}, budget {}: power H@1 {:.3} / AUC {:.3} | random H@1 {:.3} / AUC {:.3}",
            power.total_questions(),
            power.final_h1(),
            power.auc_h1(),
            random.final_h1(),
            random.auc_h1()
        );
        let labeled = |c: &CostCurve| c.points().last().map_or(0, |p| p.labeled);
        power_h1 += power.final_h1();
        random_h1 += random.final_h1();
        power_labeled += labeled(&power);
        random_labeled += labeled(&random);
    }
    let n = seeds.len() as f64;
    assert!(
        power_h1 / n > random_h1 / n,
        "inference power must beat random at equal budget: \
         mean H@1 {:.3} vs {:.3} over {} seeds",
        power_h1 / n,
        random_h1 / n,
        seeds.len()
    );
    // The power strategy also turns more of its questions into labeled
    // positives -- the structural reason it wins.
    assert!(
        power_labeled > random_labeled,
        "power labeled {power_labeled} vs random {random_labeled}"
    );
}

/// Satellite property test: for random small corpora, a full-probe
/// (`nprobe == nlist`) IVF search must equal the `BatchedSimilarity`
/// exact oracle for *every* query — same candidates, same order, scores
/// bitwise identical — across corpus sizes, dims, and list counts.
#[test]
fn ivf_full_probe_equals_batched_similarity_oracle() {
    use daakg::{IvfConfig, IvfIndex};
    for seed in 0..5u64 {
        let mut rng = StdRng::seed_from_u64(900 + seed);
        let n = rng.gen_range(20usize..250);
        let d = rng.gen_range(4usize..40);
        let nlist = rng.gen_range(1usize..20);
        let queries = random_tensor(8, d, seed * 3 + 1);
        let cands = random_tensor(n, d, seed * 3 + 2);
        let engine = BatchedSimilarity::new(&queries, &cands);
        let index = IvfIndex::build(engine.normalized_candidates(), &IvfConfig::new(nlist));
        for q in 0..queries.rows() as u32 {
            for k in [1usize, 5, n, n + 3] {
                let exact = engine.top_k(q, k);
                let approx = index.search(engine.normalized_query(q), k, index.nlist());
                assert_eq!(exact.len(), approx.len(), "seed {seed} q{q} k{k}");
                for (rank, (e, a)) in exact.iter().zip(&approx).enumerate() {
                    assert_eq!(e.0, a.0, "seed {seed} q{q} k{k} rank {rank}");
                    assert_eq!(
                        e.1.to_bits(),
                        a.1.to_bits(),
                        "seed {seed} q{q} k{k} rank {rank}: score bits diverged"
                    );
                }
            }
        }
    }
}

/// Satellite: service-layer edge cases — `k = 0`, `k ≥ n`, and
/// duplicate-score ties — with exact and approximate modes agreeing on
/// the returned candidate sets (order-insensitive on ties).
#[test]
fn service_edge_cases_agree_across_query_modes() {
    use daakg::graph::kg::{example_dbpedia, example_wikidata};
    use daakg::QueryMode;
    use std::collections::BTreeSet;

    let service = Pipeline::builder()
        .kg1(example_dbpedia())
        .kg2(example_wikidata())
        .dim(8)
        .epochs(2)
        .align_epochs(2)
        .index(3)
        .build()
        .unwrap();
    service.train(&LabeledMatches::new()).unwrap();
    let nlist = service
        .current()
        .snapshot
        .ivf_index()
        .expect("index configured")
        .nlist();
    let full = QueryMode::Approx { nprobe: nlist };
    let n1 = service.kg1().num_entities();
    let n2 = service.kg2().num_entities();
    let queries: Vec<u32> = (0..n1 as u32).collect();

    for k in [0usize, 1, n2, n2 + 7] {
        // k = 0 answers empty; k ≥ n answers the complete candidate set —
        // in both modes, for single and batch queries.
        let exact = service
            .query_batch(&queries, QueryOptions::top_k(k))
            .unwrap();
        let approx = service
            .query_batch(&queries, QueryOptions::top_k(k).with_mode(full))
            .unwrap();
        assert_eq!(exact.value.len(), queries.len());
        for (q, (e, a)) in exact.value.iter().zip(&approx.value).enumerate() {
            assert_eq!(e.len(), k.min(n2), "k={k} q={q}");
            // Order-insensitive set agreement (ties may reorder only
            // between equal scores; the sets must match regardless).
            let es: BTreeSet<u32> = e.iter().map(|&(id, _)| id).collect();
            let as_: BTreeSet<u32> = a.iter().map(|&(id, _)| id).collect();
            assert_eq!(es, as_, "k={k} q={q}: modes disagree on the set");
            let single = service
                .query(q as u32, QueryOptions::top_k(k).with_mode(full))
                .unwrap();
            assert_eq!(&single.value, a, "k={k} q={q}: batch vs single");
        }
    }
}

/// Satellite: duplicate-score ties at the engine/index layer (the service
/// serves exactly these semantics): with a corpus of repeated rows nearly
/// every score is tied, and exact and full-probe approximate rankings
/// must agree on the returned sets at every tie-crossing `k` —
/// order-insensitively — while partial probes stay subsets of the
/// candidate universe with exact scores.
#[test]
fn duplicate_score_ties_agree_between_exact_and_approx() {
    use daakg::{IvfConfig, IvfIndex};
    use std::collections::BTreeSet;

    let base = random_tensor(3, 6, 77);
    let rows: Vec<&[f32]> = (0..24).map(|j| base.row(j % 3)).collect();
    let cands = Tensor::from_rows(&rows);
    let queries = random_tensor(5, 6, 78);
    let engine = BatchedSimilarity::new(&queries, &cands);
    let index = IvfIndex::build(engine.normalized_candidates(), &IvfConfig::new(4));

    for q in 0..queries.rows() as u32 {
        for k in [1usize, 4, 8, 9, 24, 30] {
            let exact = engine.top_k(q, k);
            let approx = index.search(engine.normalized_query(q), k, index.nlist());
            let es: BTreeSet<u32> = exact.iter().map(|&(id, _)| id).collect();
            let as_: BTreeSet<u32> = approx.iter().map(|&(id, _)| id).collect();
            assert_eq!(es, as_, "q{q} k{k}: tied sets diverged");
            // Full probe is in fact order-identical too (global-id ties).
            assert_eq!(exact, approx, "q{q} k{k}: tie order diverged");
        }
        // Partial probe: every returned id carries its exact score.
        let full_ranking = engine.top_k(q, 24);
        let partial = index.search(engine.normalized_query(q), 24, 1);
        assert!(!partial.is_empty() && partial.len() <= 24);
        for &(id, s) in &partial {
            let (_, exact_score) = full_ranking.iter().find(|(e, _)| *e == id).unwrap();
            assert_eq!(s.to_bits(), exact_score.to_bits(), "q{q} id {id}");
        }
    }
}

/// Tentpole property: a [`ShardedService`](daakg::ShardedService) built
/// over the same corpus reproduces the unsharded service **bitwise** —
/// same candidate ids in the same order with bit-identical scores — for
/// shard counts spanning one partition, even splits, and uneven splits,
/// at `k = 0`, a typical `k`, `k` ≥ the per-shard slab length, and
/// `k` ≥ the whole corpus, for single queries, batches, and full
/// rankings, in both exact and full-probe approximate modes.
#[test]
fn sharded_service_reproduces_unsharded_bitwise_across_shard_counts() {
    use std::sync::Arc;

    let spec = SynthSpec::with_entities(120, 9);
    let (kg1, kg2, gold) = synthetic_pair(spec, 0.2);
    let (kg1, kg2) = (Arc::new(kg1), Arc::new(kg2));
    let mut labels = LabeledMatches::from_gold(&gold);
    labels.entities.truncate(8);
    let builder = || {
        Pipeline::builder()
            .kg1(Arc::clone(&kg1))
            .kg2(Arc::clone(&kg2))
            .joint(JointConfig {
                embed: EmbedConfig {
                    dim: 12,
                    class_dim: 4,
                    epochs: 1,
                    ..EmbedConfig::default()
                },
                align_epochs: 2,
                ..JointConfig::default()
            })
            .index(6)
    };

    // The oracle: an unsharded service, deterministically trained.
    let oracle = builder().build().unwrap();
    oracle.train(&labels).unwrap();
    let n1 = kg1.num_entities() as u32;
    let n2 = kg2.num_entities();
    let queries: Vec<u32> = (0..n1).collect();
    let nlist = oracle
        .current()
        .snapshot
        .ivf_index()
        .expect("index configured")
        .nlist();

    let assert_bitwise = |label: &str, a: &[(u32, f32)], b: &[(u32, f32)]| {
        assert_eq!(a.len(), b.len(), "{label}: lengths diverged");
        for (rank, ((ia, sa), (ib, sb))) in a.iter().zip(b).enumerate() {
            assert_eq!(ia, ib, "{label} rank {rank}: ids diverged");
            assert_eq!(
                sa.to_bits(),
                sb.to_bits(),
                "{label} rank {rank}: score bits diverged"
            );
        }
    };

    // 1 shard (degenerate), even splits, and 7 (uneven: 120 % 7 != 0,
    // per-shard slabs of ~17 rows make k = 40 exceed every slab).
    for shards in [1usize, 2, 3, 7] {
        let sharded = builder().shards(shards).build_sharded().unwrap();
        sharded.service().train(&labels).unwrap();
        assert_eq!(sharded.shards(), shards);

        for k in [0usize, 5, 40, n2, n2 + 3] {
            let want = oracle.batch_top_k(&queries, k).unwrap();
            let got = sharded.batch_top_k(&queries, k).unwrap();
            assert_eq!(got.version, want.version, "shards {shards} k {k}");
            for (q, (w, g)) in want.value.iter().zip(&got.value).enumerate() {
                assert_bitwise(&format!("shards {shards} k {k} q {q}"), w, g);
            }
        }
        // Single-query path and full rankings.
        for &q in queries.iter().step_by(17) {
            let want = oracle.top_k(q, 7).unwrap();
            let got = sharded.top_k(q, 7).unwrap();
            assert_bitwise(
                &format!("shards {shards} single q {q}"),
                &want.value,
                &got.value,
            );
            let want = oracle.rank(q).unwrap();
            let got = sharded.rank(q).unwrap();
            assert_bitwise(
                &format!("shards {shards} rank q {q}"),
                &want.value,
                &got.value,
            );
        }
        // Full-probe approximate: per-shard indexes clamp `nprobe` to
        // their own list counts, so a corpus-wide full probe is exact on
        // every shard and the merge must again be bitwise-identical.
        let opts = QueryOptions::top_k(9).approx(nlist);
        let want = oracle.query_batch(&queries, opts).unwrap();
        let got = sharded.query_batch(&queries, opts).unwrap();
        for (q, (w, g)) in want.value.iter().zip(&got.value).enumerate() {
            assert_bitwise(&format!("shards {shards} full-probe q {q}"), w, g);
        }
    }
}

/// Tentpole property: the scatter-gather merge preserves duplicate-score
/// ties exactly. With every candidate row repeated eight times, almost
/// every score is tied; merging per-shard top-k lists (global ids, one
/// more [`TopKSelector`](daakg::index::TopKSelector) pass — the sharded
/// service's merge algorithm) must reproduce the unsharded ranking
/// bitwise, ties resolved by ascending global id, for even and uneven
/// shard splits and `k` values crossing every tie group.
#[test]
fn sharded_merge_preserves_duplicate_score_ties() {
    use daakg::index::TopKSelector;
    use daakg::{IvfConfig, IvfIndex};

    // 6 distinct rows cycled over 48 candidates: ties cross every shard
    // boundary for every split below.
    let base = random_tensor(6, 8, 420);
    let rows: Vec<&[f32]> = (0..48).map(|j| base.row(j % 6)).collect();
    let cands = Tensor::from_rows(&rows);
    let queries = random_tensor(4, 8, 421);
    let engine = BatchedSimilarity::new(&queries, &cands);
    let norm = engine.normalized_candidates();
    let (n, d) = norm.shape();

    for shards in [2usize, 3, 5, 7] {
        // Contiguous split, uneven tail — the service's partitioning.
        let chunk = n.div_ceil(shards);
        let slabs: Vec<(usize, IvfIndex)> = (0..shards)
            .map(|s| {
                let base = s * chunk;
                let len = chunk.min(n - base);
                let slice = norm.as_slice()[base * d..(base + len) * d].to_vec();
                let local = Tensor::from_vec(len, d, slice);
                (base, IvfIndex::build(&local, &IvfConfig::new(3)))
            })
            .collect();

        for q in 0..queries.rows() as u32 {
            for k in [1usize, 6, 8, 9, 24, n, n + 5] {
                let want = engine.top_k(q, k);
                let mut merge = TopKSelector::new(k.min(n));
                for (base, index) in &slabs {
                    // Full probe == per-shard exact; ids are shard-local.
                    let hits = index.search(engine.normalized_query(q), k, index.nlist());
                    for (id, score) in hits {
                        merge.push(*base as u32 + id, score);
                    }
                }
                let got = merge.into_sorted();
                assert_eq!(want.len(), got.len(), "shards {shards} q{q} k{k}");
                for (rank, ((iw, sw), (ig, sg))) in want.iter().zip(&got).enumerate() {
                    assert_eq!(iw, ig, "shards {shards} q{q} k{k} rank {rank}: tie order");
                    assert_eq!(
                        sw.to_bits(),
                        sg.to_bits(),
                        "shards {shards} q{q} k{k} rank {rank}: score bits"
                    );
                }
            }
        }
    }
}

/// Tentpole integration: concurrent single queries through the
/// micro-batching ingress coalesce into batched dispatches, every answer
/// is bitwise-correct against the unsharded oracle, and every answer of
/// the (quiescent) campaign carries the one published snapshot version —
/// no torn cross-shard version mixes.
#[test]
fn ingress_coalesces_concurrent_queries_with_coherent_versions() {
    use daakg::IngressConfig;
    use std::sync::Arc;

    let spec = SynthSpec::with_entities(90, 7);
    let (kg1, kg2, gold) = synthetic_pair(spec, 0.2);
    let (kg1, kg2) = (Arc::new(kg1), Arc::new(kg2));
    let mut labels = LabeledMatches::from_gold(&gold);
    labels.entities.truncate(6);
    let builder = || {
        Pipeline::builder()
            .kg1(Arc::clone(&kg1))
            .kg2(Arc::clone(&kg2))
            .joint(JointConfig {
                embed: EmbedConfig {
                    dim: 10,
                    class_dim: 4,
                    epochs: 1,
                    ..EmbedConfig::default()
                },
                align_epochs: 2,
                ..JointConfig::default()
            })
    };
    let oracle = builder().build().unwrap();
    oracle.train(&labels).unwrap();
    let sharded = builder()
        .shards(3)
        .ingress(IngressConfig {
            max_batch: 8,
            ..IngressConfig::default()
        })
        .build_sharded()
        .unwrap();
    sharded.service().train(&labels).unwrap();

    let clients = 8usize;
    let per_client = 25usize;
    let n1 = kg1.num_entities() as u32;
    std::thread::scope(|scope| {
        let sharded = &sharded;
        let oracle = &oracle;
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    for i in 0..per_client {
                        let q = ((c * per_client + i) as u32 * 13) % n1;
                        let got = sharded.top_k(q, 5).unwrap();
                        // One coherent, current version per answer.
                        assert_eq!(got.version, oracle.version());
                        let want = oracle.top_k(q, 5).unwrap();
                        assert_eq!(want.value.len(), got.value.len());
                        for ((iw, sw), (ig, sg)) in want.value.iter().zip(&got.value) {
                            assert_eq!(iw, ig, "client {c} q {q}");
                            assert_eq!(sw.to_bits(), sg.to_bits(), "client {c} q {q}");
                        }
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
    });

    let stats = sharded.ingress_stats().expect("ingress running");
    assert_eq!(stats.queries, (clients * per_client) as u64);
    assert!(stats.batches >= 1 && stats.batches <= stats.queries);
    // With 8 concurrent closed-loop clients and `max_batch` 8, the
    // derived window waits one dispatch for callers to come back, so
    // batches coalesce: one per query would need every client to miss
    // every window.
    assert!(
        stats.batches < stats.queries,
        "no coalescing at all: {stats:?}"
    );
}
