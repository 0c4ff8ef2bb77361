//! Trainer for the standalone embedding objective: the margin losses
//! `O_er(T)` (Eq. 1) and `O_ec(T_type)` (Eq. 3).
//!
//! The joint alignment objective (Sect. 4.2) builds on these and lives in
//! `daakg-align`; this trainer is also reused there to warm up the
//! embedding tables before alignment learning.
//!
//! Two execution modes ([`TrainMode`]) share identical sampling and loss
//! structure:
//!
//! * **Dense** — the retained verification oracle: one tape per batch with
//!   full parameter tables as leaves, dense gradients, dense Adam.
//! * **Sparse** — the fast path: each batch splits into
//!   [`EmbedConfig::effective_threads`] shards, shard gradients merge as
//!   sparse row-maps in shard order, and one lazy sparse Adam step applies
//!   them. Rows a batch will read are refreshed first
//!   ([`Adam::refresh_rows`]), and the store is flushed at the end of
//!   training, so the trajectory matches the dense oracle up to
//!   floating-point reassociation. TransE's `O_er` batches run a
//!   closed-form kernel with the tape's float operations in the tape's
//!   order (`crate::kernel`); other models build one tape per shard via
//!   external gathers ([`TapeSession::gather_param`]), as the kernel's
//!   test oracle does. `O_ec` always runs on a tape.
//!
//! The shard count fixes the bits; how many threads run the shards is the
//! calling thread's `daakg-parallel` worker budget. A trainer called
//! from one side of [`daakg_parallel::join`] (as the joint model's
//! concurrent two-KG warm-up does) gets half the budget — at two workers,
//! one — and then runs its shards in line on its own thread, spawning
//! nothing per batch, with the same result as on a full budget.

use crate::config::{EmbedConfig, TrainMode};
use crate::entity_class::EntityClassModel;
use crate::kernel::ErKernel;
use crate::model::{KgEmbedding, ModelKind};
use crate::sampling::{ClassNegativeSampler, NegativeSampler, TripleArrays};
use daakg_autograd::{unique_rows, Adam, NamedGrads, ParamStore, TapeSession};
use daakg_graph::{DaakgError, KnowledgeGraph};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Summary of one training run.
#[derive(Debug, Clone, Default)]
pub struct TrainStats {
    /// Mean margin loss per epoch (entity–relation objective).
    pub er_losses: Vec<f32>,
    /// Mean margin loss per epoch (entity–class objective).
    pub ec_losses: Vec<f32>,
}

impl TrainStats {
    /// Final entity–relation loss, if any epoch ran.
    pub fn final_er_loss(&self) -> Option<f32> {
        self.er_losses.last().copied()
    }

    /// Whether the loss decreased from the first to the last epoch.
    pub fn improved(&self) -> bool {
        match (self.er_losses.first(), self.er_losses.last()) {
            (Some(first), Some(last)) => last <= first,
            _ => false,
        }
    }
}

/// Trainer executing the embedding objectives for one KG.
pub struct EmbedTrainer {
    cfg: EmbedConfig,
}

impl EmbedTrainer {
    /// A trainer with the given configuration; rejects invalid configs
    /// with a typed [`DaakgError`] instead of panicking.
    pub fn new(cfg: EmbedConfig) -> Result<Self, DaakgError> {
        cfg.validate()?;
        Ok(Self { cfg })
    }

    /// The configuration in use.
    pub fn config(&self) -> &EmbedConfig {
        &self.cfg
    }

    /// Train the entity–relation objective `O_er` (Eq. 1) and, when the KG
    /// has classes, the entity–class objective `O_ec` (Eq. 3).
    ///
    /// Parameters must already be initialized in `store` under `prefix`
    /// (including the [`EntityClassModel`] parameters when `ec` is given).
    pub fn train(
        &self,
        model: &dyn KgEmbedding,
        ec: Option<&EntityClassModel>,
        kg: &KnowledgeGraph,
        store: &mut ParamStore,
        prefix: &str,
        opt: &mut Adam,
    ) -> TrainStats {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let arrays = TripleArrays::with_reverses(kg);
        let neg_sampler = NegativeSampler::new(kg.num_entities(), &arrays);
        let cls_sampler = ClassNegativeSampler::new(kg);
        let mut stats = TrainStats::default();

        if arrays.is_empty() {
            return stats;
        }

        let mut kernel = self.er_kernel(model, store, prefix);
        let mut order: Vec<usize> = (0..arrays.len()).collect();
        for _epoch in 0..self.cfg.epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0f64;
            let mut batches = 0usize;
            for chunk in order.chunks(self.cfg.batch_size) {
                let batch = arrays.select(chunk);
                let loss = match &mut kernel {
                    Some(kernel) => kernel.step(&batch, &neg_sampler, store, opt, &mut rng),
                    None => self.er_step(model, &batch, &neg_sampler, store, prefix, opt, &mut rng),
                };
                epoch_loss += loss as f64;
                batches += 1;
            }
            stats
                .er_losses
                .push((epoch_loss / batches.max(1) as f64) as f32);

            if let Some(ec_model) = ec {
                if kg.num_type_assertions() > 0 {
                    let loss = self.ec_step(
                        model,
                        ec_model,
                        kg,
                        &cls_sampler,
                        store,
                        prefix,
                        opt,
                        &mut rng,
                    );
                    stats.ec_losses.push(loss);
                }
            }
        }
        // Lazily-deferred sparse Adam rows catch up here, so callers always
        // see the parameters the dense oracle would have produced.
        if self.cfg.mode == TrainMode::Sparse {
            opt.flush(store);
        }
        stats
    }

    /// The closed-form `O_er` kernel for TransE in [`TrainMode::Sparse`];
    /// every other model and mode builds tapes.
    fn er_kernel(
        &self,
        model: &dyn KgEmbedding,
        store: &ParamStore,
        pre: &str,
    ) -> Option<ErKernel> {
        let applies = self.cfg.mode == TrainMode::Sparse && model.kind() == ModelKind::TransE;
        #[cfg(test)]
        let applies = applies && !tests::TAPE_ORACLE.get();
        let tables = model.table_params(pre).filter(|_| applies)?;
        Some(ErKernel::new(tables, store, &self.cfg))
    }

    /// One tape-built mini-batch step of `O_er` (Eq. 1):
    /// `Σ |λ_er + f_er(pos) − f_er(neg)|₊`.
    ///
    /// Negative sampling happens before mode dispatch, so dense and sparse
    /// runs consume the RNG identically and stay comparable.
    #[allow(clippy::too_many_arguments)]
    fn er_step(
        &self,
        model: &dyn KgEmbedding,
        batch: &TripleArrays,
        sampler: &NegativeSampler,
        store: &mut ParamStore,
        prefix: &str,
        opt: &mut Adam,
        rng: &mut StdRng,
    ) -> f32 {
        let neg = sampler.corrupt_tails(rng, batch, self.cfg.neg_samples);
        match self.cfg.mode {
            TrainMode::Dense => self.er_step_dense(model, batch, &neg, store, prefix, opt),
            TrainMode::Sparse => self.er_step_sparse(model, batch, &neg, store, prefix, opt),
        }
    }

    /// The retained dense oracle: full tables bound as tape leaves.
    fn er_step_dense(
        &self,
        model: &dyn KgEmbedding,
        batch: &TripleArrays,
        neg: &TripleArrays,
        store: &mut ParamStore,
        prefix: &str,
        opt: &mut Adam,
    ) -> f32 {
        let mut s = TapeSession::new();
        let ents = model.encode_entities(&mut s, store, prefix);
        let rels = model.encode_relations(&mut s, store, prefix);

        let pos_scores = model.score_triples(
            &mut s.graph,
            ents,
            rels,
            &batch.heads,
            &batch.rels,
            &batch.tails,
        );
        let neg_scores =
            model.score_triples(&mut s.graph, ents, rels, &neg.heads, &neg.rels, &neg.tails);

        let loss = self.hinge_loss(&mut s, pos_scores, neg_scores, batch.len(), 1.0);
        let loss_val = s.graph.value(loss).item();
        s.backward(loss);
        s.step(store, opt);
        loss_val
    }

    /// The sparse/parallel fast path: the batch shards across the worker
    /// budget, each shard scores its slice through external gathers over
    /// the shared read-only store, shard gradients merge, and one (lazy)
    /// optimizer step applies them.
    fn er_step_sparse(
        &self,
        model: &dyn KgEmbedding,
        batch: &TripleArrays,
        neg: &TripleArrays,
        store: &mut ParamStore,
        prefix: &str,
        opt: &mut Adam,
    ) -> f32 {
        let k = self.cfg.neg_samples;
        let table = model.table_params(prefix);
        // Rows the forward pass will read must be current (see the Adam
        // deferred-decay contract). Encoder models read whole tables.
        match &table {
            Some(tp) => {
                // `refresh_rows` is idempotent per row (a refreshed row is
                // skipped on re-visit), so raw index slices with duplicates
                // are fine — no sort/dedup on the hot path.
                opt.refresh_rows(store, &tp.ent, &batch.heads);
                opt.refresh_rows(store, &tp.ent, &batch.tails);
                opt.refresh_rows(store, &tp.ent, &neg.tails);
                opt.refresh_rows(store, &tp.rel, &batch.rels);
            }
            None => opt.flush(store),
        }
        // Encoder models (CompGCN) re-encode the whole graph per tape, so
        // sharding would multiply encoder work; they run as one shard.
        let shards = if table.is_some() {
            self.cfg.effective_threads().min(batch.len()).max(1)
        } else {
            1
        };
        let total = batch.len();
        let store_ref = &*store;
        let results = daakg_parallel::par_map_ranges(total, shards, |r| {
            let mut s = TapeSession::new();
            let pos_scores = model.score_triples_sparse(
                &mut s,
                store_ref,
                prefix,
                &batch.heads[r.clone()],
                &batch.rels[r.clone()],
                &batch.tails[r.clone()],
            );
            let nr = r.start * k..r.end * k;
            let neg_scores = model.score_triples_sparse(
                &mut s,
                store_ref,
                prefix,
                &neg.heads[nr.clone()],
                &neg.rels[nr.clone()],
                &neg.tails[nr],
            );
            let weight = r.len() as f32 / total as f32;
            let loss = self.hinge_loss(&mut s, pos_scores, neg_scores, r.len(), weight);
            let loss_val = s.graph.value(loss).item();
            s.backward(loss);
            (loss_val, s.take_grads())
        });
        let mut loss_total = 0.0;
        let mut grads = NamedGrads::default();
        for (loss, shard_grads) in results {
            loss_total += loss;
            grads.merge(shard_grads);
        }
        grads.apply(store, opt);
        loss_total
    }

    /// The shared margin-ranking loss tail: repeat each positive score `k`
    /// times against its negatives, hinge, average, and scale by `weight`
    /// (a shard's share of the batch; `1.0` leaves the tape identical to
    /// the dense construction).
    fn hinge_loss(
        &self,
        s: &mut TapeSession,
        pos_scores: daakg_autograd::Var,
        neg_scores: daakg_autograd::Var,
        positives: usize,
        weight: f32,
    ) -> daakg_autograd::Var {
        let k = self.cfg.neg_samples;
        let rep_idx: Vec<u32> = (0..positives as u32)
            .flat_map(|i| std::iter::repeat_n(i, k))
            .collect();
        let pos_rep = s.graph.gather_rows(pos_scores, &rep_idx);
        let margin_pos = s.graph.add_scalar(pos_rep, self.cfg.margin_er);
        let diff = s.graph.sub(margin_pos, neg_scores);
        let hinge = s.graph.relu(diff);
        let mean = s.graph.mean_all(hinge);
        if weight == 1.0 {
            mean
        } else {
            s.graph.mul_scalar(mean, weight)
        }
    }

    /// One full pass of `O_ec` (Eq. 3) over the KG's type assertions:
    /// `Σ |λ_ec + f_ec(e, c) − f_ec(e', c)|₊` with `e' ∉ c`.
    #[allow(clippy::too_many_arguments)]
    fn ec_step(
        &self,
        model: &dyn KgEmbedding,
        ec_model: &EntityClassModel,
        kg: &KnowledgeGraph,
        sampler: &ClassNegativeSampler,
        store: &mut ParamStore,
        prefix: &str,
        opt: &mut Adam,
        rng: &mut StdRng,
    ) -> f32 {
        let assertions = kg.type_assertions();
        let mut pos_entities = Vec::with_capacity(assertions.len());
        let mut neg_entities = Vec::with_capacity(assertions.len());
        let mut classes = Vec::with_capacity(assertions.len());
        for a in assertions {
            pos_entities.push(a.entity.raw());
            classes.push(a.class.raw());
            neg_entities.push(sampler.sample_non_member(rng, a.class.raw()));
        }

        // The entity table may carry deferred sparse-Adam rows from the
        // `O_er` batches; the rows this pass gathers must be current. The
        // class/FFNN parameters only ever take dense steps, so they never
        // lag. The dense gradient this step produces for the entity table
        // flushes the remaining rows inside `Adam::step`.
        if self.cfg.mode == TrainMode::Sparse {
            match model.table_params(prefix) {
                Some(tp) => {
                    let ent_rows = unique_rows(&[&pos_entities, &neg_entities]);
                    opt.refresh_rows(store, &tp.ent, &ent_rows);
                }
                None => opt.flush(store),
            }
        }

        let mut s = TapeSession::new();
        let ents = model.encode_entities(&mut s, store, prefix);
        let pos_rows = s.graph.gather_rows(ents, &pos_entities);
        let neg_rows = s.graph.gather_rows(ents, &neg_entities);
        let pos_mapped = ec_model.map_entities(&mut s, store, prefix, pos_rows);
        let neg_mapped = ec_model.map_entities(&mut s, store, prefix, neg_rows);
        let pos_scores = ec_model.score(&mut s, store, prefix, pos_mapped, &classes);
        let neg_scores = ec_model.score(&mut s, store, prefix, neg_mapped, &classes);

        let margin_pos = s.graph.add_scalar(pos_scores, self.cfg.margin_ec);
        let diff = s.graph.sub(margin_pos, neg_scores);
        let hinge = s.graph.relu(diff);
        let loss = s.graph.mean_all(hinge);
        let loss_val = s.graph.value(loss).item();
        s.backward(loss);
        s.step(store, opt);
        loss_val
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelKind;
    use crate::transe::TransE;
    use daakg_graph::KgBuilder;

    /// A small chain KG with enough structure to train on.
    fn chain_kg(n: usize) -> KnowledgeGraph {
        let mut b = KgBuilder::new("chain");
        for i in 0..n {
            let a = format!("e{i}");
            let c = format!("e{}", (i + 1) % n);
            b.triple_by_name(&a, "next", &c);
            if i % 2 == 0 {
                b.typing_by_name(&a, "Even");
            } else {
                b.typing_by_name(&a, "Odd");
            }
        }
        b.build()
    }

    #[test]
    fn transe_loss_decreases() {
        let kg = chain_kg(20);
        let model = TransE::new(&kg, 8);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        model.init_params(&mut rng, &mut store, "g.");
        let cfg = EmbedConfig {
            epochs: 10,
            batch_size: 16,
            lr: 0.05,
            dim: 8,
            ..EmbedConfig::default()
        };
        let trainer = EmbedTrainer::new(cfg).unwrap();
        let mut opt = Adam::with_lr(cfg.lr);
        let stats = trainer.train(&model, None, &kg, &mut store, "g.", &mut opt);
        assert_eq!(stats.er_losses.len(), 10);
        assert!(
            stats.improved(),
            "loss did not improve: {:?}",
            stats.er_losses
        );
    }

    #[test]
    fn entity_class_objective_trains() {
        let kg = chain_kg(16);
        let model = TransE::new(&kg, 8);
        let ec = EntityClassModel::new(kg.num_classes(), 8, 4);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        model.init_params(&mut rng, &mut store, "g.");
        ec.init_params(&mut rng, &mut store, "g.");
        let cfg = EmbedConfig {
            epochs: 8,
            batch_size: 16,
            dim: 8,
            class_dim: 4,
            ..EmbedConfig::default()
        };
        let trainer = EmbedTrainer::new(cfg).unwrap();
        let mut opt = Adam::with_lr(cfg.lr);
        let stats = trainer.train(&model, Some(&ec), &kg, &mut store, "g.", &mut opt);
        assert_eq!(stats.ec_losses.len(), 8);
        let first = stats.ec_losses[0];
        let last = *stats.ec_losses.last().unwrap();
        assert!(last <= first, "ec loss did not improve: {first} -> {last}");
        // After training, a member entity should score lower against its
        // class than a non-member.
        let ents = model.entity_matrix(&store, "g.");
        let even = kg.class_by_name("Even").unwrap().raw();
        let member = kg.entity_by_name("e0").unwrap().index();
        let non_member = kg.entity_by_name("e1").unwrap().index();
        let s_member = ec.score_one(&store, "g.", ents.row(member), even);
        let s_non = ec.score_one(&store, "g.", ents.row(non_member), even);
        assert!(
            s_member < s_non,
            "member {s_member} not closer than non-member {s_non}"
        );
    }

    /// Train one model per mode from identical init and return
    /// `(er_losses, final entity table)` for each.
    #[allow(clippy::type_complexity)]
    fn train_both_modes(
        kind: ModelKind,
        threads: usize,
        epochs: usize,
        with_ec: bool,
    ) -> ((Vec<f32>, Vec<f32>), (Vec<f32>, Vec<f32>)) {
        let kg = chain_kg(24);
        let run = |mode: TrainMode| {
            let model = crate::build_model(kind, &kg, 8);
            let ec = with_ec.then(|| EntityClassModel::new(kg.num_classes(), 8, 4));
            let mut store = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(9);
            model.init_params(&mut rng, &mut store, "g.");
            if let Some(ec) = &ec {
                ec.init_params(&mut rng, &mut store, "g.");
            }
            let cfg = EmbedConfig {
                model: kind,
                epochs,
                batch_size: 8,
                dim: 8,
                class_dim: 4,
                mode,
                threads,
                ..EmbedConfig::default()
            };
            let trainer = EmbedTrainer::new(cfg).unwrap();
            let mut opt = Adam::with_lr(cfg.lr);
            let stats = trainer.train(model.as_ref(), ec.as_ref(), &kg, &mut store, "g.", &mut opt);
            (
                stats.er_losses,
                model.entity_matrix(&store, "g.").as_slice().to_vec(),
            )
        };
        (run(TrainMode::Dense), run(TrainMode::Sparse))
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32, what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length mismatch");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= tol,
                "{what}[{i}]: dense={x} sparse={y} (tol {tol})"
            );
        }
    }

    #[test]
    fn sparse_training_matches_dense_oracle_single_shard() {
        // One shard keeps the tape op-for-op identical to the dense path,
        // so losses and final parameters agree to float precision.
        let (dense, sparse) = train_both_modes(ModelKind::TransE, 1, 4, false);
        assert_close(&dense.0, &sparse.0, 1e-6, "er loss trajectory");
        assert_close(&dense.1, &sparse.1, 1e-5, "final entity table");
    }

    #[test]
    fn sparse_training_matches_dense_oracle_multi_shard() {
        // Several shards reassociate the gradient sums; trajectories agree
        // within floating-point accumulation tolerance.
        let (dense, sparse) = train_both_modes(ModelKind::TransE, 3, 4, false);
        assert_close(&dense.0, &sparse.0, 1e-4, "er loss trajectory");
        assert_close(&dense.1, &sparse.1, 1e-3, "final entity table");
    }

    #[test]
    fn sparse_training_matches_dense_with_entity_class_objective() {
        // Interleaves sparse er-steps with the dense-gradient ec-step:
        // exercises refresh-before-read and dense-step flushing.
        let (dense, sparse) = train_both_modes(ModelKind::TransE, 2, 3, true);
        assert_close(&dense.0, &sparse.0, 1e-4, "er loss trajectory");
        assert_close(&dense.1, &sparse.1, 1e-3, "final entity table");
    }

    #[test]
    fn sparse_training_matches_dense_for_rotate() {
        let (dense, sparse) = train_both_modes(ModelKind::RotatE, 2, 3, false);
        assert_close(&dense.0, &sparse.0, 1e-4, "er loss trajectory");
        assert_close(&dense.1, &sparse.1, 1e-3, "final entity table");
    }

    #[test]
    fn sparse_mode_falls_back_cleanly_for_encoder_models() {
        // CompGCN reports no table params: the sparse path must still
        // train (single shard, dense gradients) and match the oracle.
        let (dense, sparse) = train_both_modes(ModelKind::CompGcn, 4, 2, false);
        assert_close(&dense.0, &sparse.0, 1e-5, "er loss trajectory");
        assert_close(&dense.1, &sparse.1, 1e-4, "final entity table");
    }

    thread_local! {
        /// Run this thread's TransE sparse `O_er` batches on the tape, the
        /// oracle of the closed-form kernel.
        pub(super) static TAPE_ORACLE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    /// A KG of `n` entities over four relations and three classes, with a
    /// self-loop on `e0` (the same entity as head and tail).
    fn typed_kg(n: usize) -> KnowledgeGraph {
        let mut b = KgBuilder::new("typed");
        for i in 0..n {
            let (e, next, far) = (
                format!("e{i}"),
                format!("e{}", (i + 1) % n),
                format!("e{}", (i * 7 + 3) % n),
            );
            b.triple_by_name(&e, &format!("r{}", i % 4), &next);
            b.triple_by_name(&e, &format!("r{}", (i / 4) % 4), &far);
            b.typing_by_name(&e, &format!("C{}", i % 3));
        }
        b.triple_by_name("e0", "r0", "e0");
        b.build()
    }

    /// Train TransE once on the closed-form kernel and once on the tape
    /// oracle from identical parameters (`init` may overwrite rows after
    /// the seeded init); returns `(stats, store)` for each.
    fn kernel_and_tape(
        kg: &KnowledgeGraph,
        cfg: EmbedConfig,
        with_ec: bool,
        init: impl Fn(&mut ParamStore),
    ) -> [(TrainStats, ParamStore); 2] {
        [false, true].map(|tape_oracle| {
            let model = TransE::new(kg, cfg.dim);
            let ec = with_ec.then(|| EntityClassModel::new(kg.num_classes(), cfg.dim, 4));
            let mut store = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(cfg.seed);
            model.init_params(&mut rng, &mut store, "g.");
            if let Some(ec) = &ec {
                ec.init_params(&mut rng, &mut store, "g.");
            }
            init(&mut store);
            let trainer = EmbedTrainer::new(cfg).unwrap();
            let mut opt = Adam::with_lr(cfg.lr);
            TAPE_ORACLE.set(tape_oracle);
            let stats = trainer.train(&model, ec.as_ref(), kg, &mut store, "g.", &mut opt);
            TAPE_ORACLE.set(false);
            (stats, store)
        })
    }

    fn assert_kernel_matches_tape(runs: &[(TrainStats, ParamStore); 2], what: &str) {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let [(ks, kstore), (ts, tstore)] = runs;
        assert!(!ks.er_losses.is_empty(), "{what}: nothing trained");
        assert_eq!(
            bits(&ks.er_losses),
            bits(&ts.er_losses),
            "{what}: O_er losses"
        );
        assert_eq!(
            bits(&ks.ec_losses),
            bits(&ts.ec_losses),
            "{what}: O_ec losses"
        );
        assert_eq!(kstore.len(), tstore.len(), "{what}: parameter count");
        for ((name, k), (_, t)) in kstore.iter().zip(tstore.iter()) {
            assert_eq!(bits(k.as_slice()), bits(t.as_slice()), "{what}: {name}");
        }
    }

    /// The closed-form TransE kernel trains every parameter and every loss
    /// to the tape oracle's bits, at every shard count, with and without
    /// the interleaved `O_ec` pass, across seeds.
    #[test]
    fn transe_kernel_matches_the_tape_oracle_bitwise() {
        let kg = typed_kg(40);
        for seed in [1, 2, 31] {
            for threads in 0..=3 {
                for with_ec in [false, true] {
                    let cfg = EmbedConfig {
                        epochs: 3,
                        batch_size: 24,
                        dim: 8,
                        class_dim: 4,
                        seed,
                        threads,
                        ..EmbedConfig::default()
                    };
                    let runs = kernel_and_tape(&kg, cfg, with_ec, |_| {});
                    let what = format!("seed={seed} threads={threads} ec={with_ec}");
                    assert_kernel_matches_tape(&runs, &what);
                }
            }
        }
    }

    /// Adversarial batches: a self-loop whose relation row is zero (its
    /// score `‖h + r − t‖` is exactly 0, so the norm backward skips it),
    /// negatives that all score exactly the margin (hinge exactly 0),
    /// rows repeated within a shard, and batches smaller than the shard
    /// count.
    #[test]
    fn transe_kernel_matches_the_tape_oracle_on_adversarial_batches() {
        let mut b = KgBuilder::new("adversarial");
        b.triple_by_name("a", "loop", "a");
        b.triple_by_name("a", "next", "b");
        b.triple_by_name("b", "next", "c");
        let kg = b.build();
        let (a, lp) = (
            kg.entity_by_name("a").unwrap().index(),
            kg.relation_by_name("loop").unwrap().index(),
        );
        // `a` is a unit vector and `b`, `c` are zero, so every negative of
        // the self-loop scores exactly 1.0 = the margin.
        let init = |store: &mut ParamStore| {
            let ents = store.get_mut("g.ent");
            for r in 0..ents.rows() {
                ents.row_mut(r).fill(0.0);
            }
            ents.row_mut(a)[0] = 1.0;
            let rels = store.get_mut("g.rel");
            rels.row_mut(lp).fill(0.0);
            rels.row_mut(lp + kg.num_relations()).fill(0.0);
        };
        for threads in 1..=3 {
            let cfg = EmbedConfig {
                epochs: 2,
                batch_size: 2,
                dim: 4,
                margin_er: 1.0,
                threads,
                ..EmbedConfig::default()
            };
            let runs = kernel_and_tape(&kg, cfg, false, init);
            assert_kernel_matches_tape(&runs, &format!("threads={threads}"));
        }
    }

    #[test]
    fn empty_kg_is_a_noop() {
        let kg = KgBuilder::new("empty").build();
        let model = TransE::new(&kg, 8);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        model.init_params(&mut rng, &mut store, "g.");
        let trainer = EmbedTrainer::new(EmbedConfig::default().with_dim(8)).unwrap();
        let mut opt = Adam::with_lr(0.01);
        let stats = trainer.train(&model, None, &kg, &mut store, "g.", &mut opt);
        assert!(stats.er_losses.is_empty());
    }

    #[test]
    fn all_model_kinds_train_one_epoch() {
        let kg = chain_kg(10);
        for kind in ModelKind::ALL {
            let model = crate::build_model(kind, &kg, 8);
            let mut store = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(0);
            model.init_params(&mut rng, &mut store, "g.");
            let cfg = EmbedConfig {
                model: kind,
                epochs: 2,
                batch_size: 8,
                dim: 8,
                ..EmbedConfig::default()
            };
            let trainer = EmbedTrainer::new(cfg).unwrap();
            let mut opt = Adam::with_lr(0.02);
            let stats = trainer.train(model.as_ref(), None, &kg, &mut store, "g.", &mut opt);
            assert_eq!(stats.er_losses.len(), 2, "{kind} failed to train");
            assert!(stats.er_losses.iter().all(|l| l.is_finite()));
        }
    }
}
