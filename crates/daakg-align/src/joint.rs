//! The orchestrating joint alignment model (Sect. 4.2).
//!
//! [`JointModel`] owns the embedding models of both KGs, the entity-class
//! models, the mapping matrices and the parameter store, and drives the
//! training schedule:
//!
//! 1. **warm-up** — both KGs train their standalone embedding objectives
//!    (`O_er`, `O_ec`) with [`EmbedTrainer`];
//! 2. **alignment rounds** — each round builds an [`AlignmentSnapshot`],
//!    recomputes the dangling weights (Eq. 6), then optimizes the softmax
//!    alignment losses `O_ea`/`O_ra`/`O_ca` (Eq. 5, 8) over the labeled
//!    matches with sampled negatives, plus the semi-supervised loss
//!    `O_semi` (Eq. 10) over mined potential matches;
//! 3. **fine-tuning** — when new labels arrive (active learning), a short
//!    focal-loss pass (`(1−p)^γ·(−log p)`) concentrates on the freshly
//!    labeled, still-misclassified pairs.
//!
//! The Eq. 6 weights and the semi-supervised mining come from one fused,
//! parallel scan of the snapshot's similarity engine
//! ([`crate::batched::BatchedSimilarity::round_scan`]) instead of a naive
//! `O(n²·d)` cosine sweep.
//!
//! With table models in [`TrainMode::Sparse`] (the default), neither hot
//! loop builds a tape: the TransE warm-up runs `daakg-embed`'s closed-form
//! `O_er` kernel, and each alignment step runs the closed forms of its
//! softmax pair terms and `O_semi` (see [`crate::losses`]). Both train
//! bit for bit what their tape constructions train; those are kept as
//! test oracles. A [`TrainSpans`] bundle ([`JointModel::set_spans`])
//! times the warm-up, each alignment step and each round-state refresh.

use crate::config::JointConfig;
use crate::losses::{
    pair_term, semi_supervised_loss, semi_term, softmax_pair_loss, PairRows, PairScratch,
};
use crate::mapping::{init_mappings, map_names};
use crate::semi::{mine_potential_matches, PotentialMatch};
use crate::snapshot::AlignmentSnapshot;
use crate::weights::EntityWeights;
use daakg_autograd::{Adam, Optimizer, ParamStore, SparseGrad, TapeSession, Tensor, Var};
use daakg_embed::{
    build_model, EmbedTrainer, EntityClassModel, KgEmbedding, TableParams, TrainMode,
};
use daakg_graph::{DaakgError, ElementPair, GoldAlignment, KnowledgeGraph};
use daakg_telemetry::HistogramHandle;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Labeled matches driving the supervised alignment losses: positive
/// element pairs per kind, stored as raw `(left, right)` indices.
#[derive(Debug, Clone, Default)]
pub struct LabeledMatches {
    /// Matched entity pairs.
    pub entities: Vec<(u32, u32)>,
    /// Matched relation pairs.
    pub relations: Vec<(u32, u32)>,
    /// Matched class pairs.
    pub classes: Vec<(u32, u32)>,
}

impl LabeledMatches {
    /// No labels.
    pub fn new() -> Self {
        Self::default()
    }

    /// All matches of a gold alignment (the fully-supervised setting).
    pub fn from_gold(gold: &GoldAlignment) -> Self {
        let mut out = Self::new();
        for (l, r) in gold.entity_matches() {
            out.entities.push((l.raw(), r.raw()));
        }
        for (l, r) in gold.relation_matches() {
            out.relations.push((l.raw(), r.raw()));
        }
        for (l, r) in gold.class_matches() {
            out.classes.push((l.raw(), r.raw()));
        }
        out
    }

    /// Record one labeled match of any kind.
    pub fn push(&mut self, pair: ElementPair) {
        match pair {
            ElementPair::Entity(l, r) => self.entities.push((l.raw(), r.raw())),
            ElementPair::Relation(l, r) => self.relations.push((l.raw(), r.raw())),
            ElementPair::Class(l, r) => self.classes.push((l.raw(), r.raw())),
        }
    }

    /// Total number of labeled pairs across kinds.
    pub fn len(&self) -> usize {
        self.entities.len() + self.relations.len() + self.classes.len()
    }

    /// True when no labels exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Check every id against the graphs it indexes (`kg1` left, `kg2`
    /// right). Out-of-range entity ids are
    /// [`DaakgError::UnknownEntity`]; relation and class ids are
    /// [`DaakgError::InvalidConfig`].
    pub fn validate(&self, kg1: &KnowledgeGraph, kg2: &KnowledgeGraph) -> Result<(), DaakgError> {
        for &(l, r) in &self.entities {
            check_entity_pair(kg1, kg2, l, r)?;
        }
        let schema = [
            (
                "relation",
                &self.relations,
                kg1.num_relations(),
                kg2.num_relations(),
            ),
            ("class", &self.classes, kg1.num_classes(), kg2.num_classes()),
        ];
        for (kind, pairs, n1, n2) in schema {
            if let Some(&(l, r)) = pairs
                .iter()
                .find(|&&(l, r)| l as usize >= n1 || r as usize >= n2)
            {
                return Err(DaakgError::invalid(
                    "LabeledMatches",
                    format!(
                        "{kind} pair ({l}, {r}) is out of range: the graphs hold {n1} and {n2}"
                    ),
                ));
            }
        }
        Ok(())
    }
}

/// Check one `(left, right)` entity pair against both graphs.
pub(crate) fn check_entity_pair(
    kg1: &KnowledgeGraph,
    kg2: &KnowledgeGraph,
    l: u32,
    r: u32,
) -> Result<(), DaakgError> {
    for (kg, id) in [(kg1, l), (kg2, r)] {
        if id as usize >= kg.num_entities() {
            return Err(DaakgError::unknown_entity(kg.name(), id, kg.num_entities()));
        }
    }
    Ok(())
}

/// The joint alignment model: everything needed to train and snapshot.
pub struct JointModel {
    cfg: JointConfig,
    model1: Box<dyn KgEmbedding>,
    model2: Box<dyn KgEmbedding>,
    ec1: EntityClassModel,
    ec2: EntityClassModel,
    store: ParamStore,
    weights: EntityWeights,
    /// Potential matches mined in the latest round (for inspection).
    last_mined: Vec<PotentialMatch>,
    spans: TrainSpans,
    /// Scratch of the closed-form alignment step, reused across steps:
    /// each table's sparse row-gradient map, cleared after its Adam step.
    grads: HashMap<String, SparseGrad>,
    pair_scratch: PairScratch,
    /// Run the sparse alignment steps on the tape instead of the
    /// closed-form kernel: the oracle the kernel is checked against.
    #[cfg(test)]
    tape_oracle: bool,
}

/// Per-stage timing handles for training: the embedding warm-up, each
/// alignment step, and each round-state refresh (snapshot build, fused
/// Eq. 6 / mining scan). Default handles are no-ops, so an unobserved
/// model reads no clock.
#[derive(Debug, Clone, Default)]
pub struct TrainSpans {
    /// One [`JointModel::train`] warm-up (both KGs' `O_er`/`O_ec`).
    pub warm_up: HistogramHandle,
    /// One alignment optimizer step.
    pub align_step: HistogramHandle,
    /// One refresh of the dangling weights and mined matches.
    pub round_scan: HistogramHandle,
}

impl JointModel {
    /// Build models for both KGs and initialize all parameters; rejects
    /// invalid configurations with a typed [`DaakgError`] instead of
    /// panicking.
    pub fn new(
        cfg: JointConfig,
        kg1: &KnowledgeGraph,
        kg2: &KnowledgeGraph,
    ) -> Result<Self, DaakgError> {
        cfg.validate()?;
        let dim = cfg.embed.dim;
        let model1 = build_model(cfg.embed.model, kg1, dim);
        let model2 = build_model(cfg.embed.model, kg2, dim);
        let ec1 = EntityClassModel::new(kg1.num_classes(), dim, cfg.embed.class_dim);
        let ec2 = EntityClassModel::new(kg2.num_classes(), dim, cfg.embed.class_dim);

        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.embed.seed);
        model1.init_params(&mut rng, &mut store, "g1.");
        model2.init_params(&mut rng, &mut store, "g2.");
        ec1.init_params(&mut rng, &mut store, "g1.");
        ec2.init_params(&mut rng, &mut store, "g2.");
        init_mappings(
            &mut rng,
            &mut store,
            dim,
            model1.relation_dim(),
            2 * cfg.embed.class_dim,
        );

        let weights = EntityWeights::uniform(kg1.num_entities(), kg2.num_entities());
        Ok(Self {
            cfg,
            model1,
            model2,
            ec1,
            ec2,
            store,
            weights,
            last_mined: Vec::new(),
            spans: TrainSpans::default(),
            grads: HashMap::new(),
            pair_scratch: PairScratch::default(),
            #[cfg(test)]
            tape_oracle: false,
        })
    }

    /// Record the training stages into `spans` from now on.
    pub fn set_spans(&mut self, spans: TrainSpans) {
        self.spans = spans;
    }

    /// The configuration in use.
    pub fn config(&self) -> &JointConfig {
        &self.cfg
    }

    /// Read access to the parameter store.
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Potential matches mined during the latest training round.
    pub fn last_mined(&self) -> &[PotentialMatch] {
        &self.last_mined
    }

    /// A tape-free snapshot of the current model state.
    pub fn snapshot(&self, kg1: &KnowledgeGraph, kg2: &KnowledgeGraph) -> AlignmentSnapshot {
        AlignmentSnapshot::build(
            kg1,
            kg2,
            self.model1.as_ref(),
            self.model2.as_ref(),
            &self.ec1,
            &self.ec2,
            &self.store,
            self.weights.clone(),
            self.cfg.use_mean_embeddings,
            self.cfg.use_class_embeddings,
        )
    }

    /// Full training: embedding warm-up, then `align_epochs` alignment
    /// rounds over the labeled matches. Returns the final snapshot.
    pub fn train(
        &mut self,
        kg1: &KnowledgeGraph,
        kg2: &KnowledgeGraph,
        labels: &LabeledMatches,
    ) -> AlignmentSnapshot {
        // Phase 1: standalone embedding objectives for both KGs.
        {
            let _span = self.spans.warm_up.span();
            self.warm_up(kg1, kg2);
        }

        // Phase 2: alignment rounds.
        let mut opt = Adam::with_lr(self.cfg.align_lr);
        let mut rng = StdRng::seed_from_u64(self.cfg.embed.seed ^ 0xA11C);
        for epoch in 0..self.cfg.align_epochs {
            // Refresh weights + mined pairs a few times per run, not every
            // epoch: snapshots cost a full encode of both KGs. Snapshots
            // read whole tables, so pending lazy rows catch up first.
            if epoch % 5 == 0 {
                opt.flush(&mut self.store);
                self.refresh_round_state(kg1, kg2);
            }
            self.alignment_step(kg2, labels, &mut opt, &mut rng, None);
        }
        opt.flush(&mut self.store);
        self.refresh_round_state(kg1, kg2);
        self.snapshot(kg1, kg2)
    }

    /// Phase 1 of [`JointModel::train`]: each KG's standalone embedding
    /// objectives (`O_er`, Eq. 1; `O_ec`, Eq. 3).
    ///
    /// Neither KG's objectives read or write the other's parameters, so
    /// the two warm-ups run concurrently under [`daakg_parallel::join`]:
    /// the `g2.` parameters move into their own [`ParamStore`], each side
    /// trains with its own [`Adam`], and the parameters move back. This is
    /// bitwise the arithmetic of training KG1 then KG2 on one store with
    /// one optimizer — Adam's moments and step count are per parameter,
    /// its bias table is a pure function of the step, and the phase-1
    /// optimizer is discarded afterwards — at any worker budget, because
    /// the mini-batch shard count comes from
    /// [`EmbedConfig::effective_threads`](daakg_embed::EmbedConfig::effective_threads),
    /// not from the budget each side runs with.
    fn warm_up(&mut self, kg1: &KnowledgeGraph, kg2: &KnowledgeGraph) {
        let trainer =
            EmbedTrainer::new(self.cfg.embed).expect("JointConfig validated at construction");
        let lr = self.cfg.embed.lr;
        let classes = self.cfg.use_class_embeddings;
        let (model1, model2) = (self.model1.as_ref(), self.model2.as_ref());
        let ec1 = classes.then_some(&self.ec1);
        let ec2 = classes.then_some(&self.ec2);
        let mut store2 = self.store.split_prefix("g2.");
        let store1 = &mut self.store;
        daakg_parallel::join(
            || trainer.train(model1, ec1, kg1, store1, "g1.", &mut Adam::with_lr(lr)),
            || trainer.train(model2, ec2, kg2, &mut store2, "g2.", &mut Adam::with_lr(lr)),
        );
        self.store.absorb(store2);
    }

    /// The warm-up as one sequential pass — one store, one optimizer, KG1
    /// then KG2 — which [`JointModel::warm_up`] must reproduce bitwise.
    #[cfg(test)]
    fn warm_up_reference(&mut self, kg1: &KnowledgeGraph, kg2: &KnowledgeGraph) {
        let trainer =
            EmbedTrainer::new(self.cfg.embed).expect("JointConfig validated at construction");
        let mut opt = Adam::with_lr(self.cfg.embed.lr);
        let ec1 = self.cfg.use_class_embeddings.then_some(&self.ec1);
        let ec2 = self.cfg.use_class_embeddings.then_some(&self.ec2);
        trainer.train(
            self.model1.as_ref(),
            ec1,
            kg1,
            &mut self.store,
            "g1.",
            &mut opt,
        );
        trainer.train(
            self.model2.as_ref(),
            ec2,
            kg2,
            &mut self.store,
            "g2.",
            &mut opt,
        );
    }

    /// Run `epochs` alignment epochs over the labeled matches with a fresh
    /// optimizer, returning the loss per epoch. This is the core of the
    /// "alignment round" hot path (also driven by [`JointModel::train`])
    /// exposed for benchmarking and incremental training; round state is
    /// refreshed once at the start and lazily-deferred parameter rows are
    /// flushed before returning.
    pub fn align_rounds(
        &mut self,
        kg1: &KnowledgeGraph,
        kg2: &KnowledgeGraph,
        labels: &LabeledMatches,
        epochs: usize,
    ) -> Vec<f32> {
        let mut opt = Adam::with_lr(self.cfg.align_lr);
        let mut rng = StdRng::seed_from_u64(self.cfg.embed.seed ^ 0xA11C);
        self.refresh_round_state(kg1, kg2);
        let mut losses = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            losses.push(self.alignment_step(kg2, labels, &mut opt, &mut rng, None));
        }
        opt.flush(&mut self.store);
        losses
    }

    /// Focal fine-tuning on (newly) labeled matches — the active-learning
    /// update path. Returns the refreshed snapshot.
    pub fn fine_tune(
        &mut self,
        kg1: &KnowledgeGraph,
        kg2: &KnowledgeGraph,
        labels: &LabeledMatches,
    ) -> AlignmentSnapshot {
        self.fine_tune_with_inferred(kg1, kg2, labels, &[], 1.0)
    }

    /// Active-learning update with inferred matches injected alongside the
    /// labels: entity pairs inferred with confidence at or above `accept`
    /// join the supervised set as hard positives for the focal pass, the
    /// rest join the semi-supervised mined set with their confidence as
    /// the soft label (Eq. 10). Returns the refreshed snapshot.
    ///
    /// `inferred` holds `(left, right, confidence)` raw entity pairs, as
    /// produced by the `daakg-infer` closure.
    pub fn fine_tune_with_inferred(
        &mut self,
        kg1: &KnowledgeGraph,
        kg2: &KnowledgeGraph,
        labels: &LabeledMatches,
        inferred: &[(u32, u32, f32)],
        accept: f32,
    ) -> AlignmentSnapshot {
        let mut augmented = labels.clone();
        let mut soft: Vec<(ElementPair, f32)> = self
            .last_mined
            .iter()
            .map(|m| (m.pair, m.soft_label))
            .collect();
        for &(l, r, c) in inferred {
            let pair =
                ElementPair::Entity(daakg_graph::EntityId::new(l), daakg_graph::EntityId::new(r));
            if c >= accept {
                augmented.entities.push((l, r));
            } else {
                soft.push((pair, c));
            }
        }
        // Re-mine so injected soft pairs obey the 1:1 conflict resolution.
        self.last_mined = mine_potential_matches(soft, 0.0);

        let mut opt = Adam::with_lr(self.cfg.align_lr);
        let mut rng = StdRng::seed_from_u64(self.cfg.embed.seed ^ 0xF0CA);
        let gamma = Some(self.cfg.focal_gamma);
        for _ in 0..self.cfg.fine_tune_epochs {
            self.alignment_step(kg2, &augmented, &mut opt, &mut rng, gamma);
        }
        opt.flush(&mut self.store);
        self.refresh_round_state(kg1, kg2);
        self.snapshot(kg1, kg2)
    }

    /// Rebuild the snapshot-derived round state: dangling-entity weights
    /// (Eq. 6) and, when enabled, the mined potential matches (Eq. 10),
    /// both from one fused scan of the similarity matrix.
    fn refresh_round_state(&mut self, kg1: &KnowledgeGraph, kg2: &KnowledgeGraph) {
        let _span = self.spans.round_scan.span();
        let scan = self.snapshot(kg1, kg2).entity_engine().round_scan();
        self.weights = scan.weights;
        self.last_mined = if self.cfg.use_semi_supervision {
            let scored = scan.best.iter().enumerate().filter_map(|(q, best)| {
                best.map(|(e2, s)| {
                    (
                        ElementPair::Entity(
                            daakg_graph::EntityId::new(q as u32),
                            daakg_graph::EntityId::new(e2),
                        ),
                        s,
                    )
                })
            });
            mine_potential_matches(scored, self.cfg.semi_threshold)
        } else {
            Vec::new()
        };
    }

    /// One optimizer step of the alignment objective: softmax pair losses
    /// for all labeled kinds plus the semi-supervised term.
    ///
    /// Every negative is drawn first, so each construction below consumes
    /// the RNG identically:
    ///
    /// * **closed-form kernel** ([`TrainMode::Sparse`] + table models):
    ///   only the labeled/mined/negative rows are read, each pair's left
    ///   row is mapped once — `O(pairs·d²)` per step — and
    ///   [`pair_term`]/[`semi_term`] write the mapping gradients and the
    ///   sparse table-row gradients directly for lazy Adam. The class term
    ///   `O_ca` (small derived matrices, mapping gradient only) stays on a
    ///   tape and its gradient joins the kernel's. The tape construction of
    ///   the same step is kept as the test oracle and trains the same bits;
    /// * **dense tape** ([`TrainMode::Dense`], and encoder models without
    ///   raw tables): map the *whole* left table through the mapping
    ///   matrix, then gather pair rows — `O(n·d²)` per step.
    fn alignment_step(
        &mut self,
        kg2: &KnowledgeGraph,
        labels: &LabeledMatches,
        opt: &mut Adam,
        rng: &mut StdRng,
        focal_gamma: Option<f32>,
    ) -> f32 {
        let _span = self.spans.align_step.span();
        let rows = self.sample_step(kg2, labels, rng);
        let tables = if self.cfg.embed.mode == TrainMode::Sparse {
            self.model1
                .table_params("g1.")
                .zip(self.model2.table_params("g2."))
        } else {
            None
        };
        let Some((tp1, tp2)) = tables else {
            return self.dense_tape_step(&rows, opt, focal_gamma);
        };

        // Lazy sparse-Adam rows the step will read must be current first.
        // A refreshed row is skipped on re-visit, so repeated ids need no
        // dedup.
        if let Some(er) = &rows.ent {
            for ids in [&er.left_once, &rows.mined_l] {
                opt.refresh_rows(&mut self.store, &tp1.ent, ids);
            }
            for ids in [&er.pos_rrows, &er.neg_rrows, &rows.mined_r] {
                opt.refresh_rows(&mut self.store, &tp2.ent, ids);
            }
        }
        if let Some(rr) = &rows.rel {
            opt.refresh_rows(&mut self.store, &tp1.rel, &rr.left_once);
            for ids in [&rr.pos_rrows, &rr.neg_rrows] {
                opt.refresh_rows(&mut self.store, &tp2.rel, ids);
            }
        }
        #[cfg(test)]
        if self.tape_oracle {
            return self.sparse_tape_step(&rows, &tp1, &tp2, opt, focal_gamma);
        }
        self.kernel_step(&rows, &tp1, &tp2, opt, focal_gamma)
    }

    /// Draw one step's rows: every kind's negatives, and the mined pairs
    /// feeding the semi-supervised term.
    fn sample_step(
        &self,
        kg2: &KnowledgeGraph,
        labels: &LabeledMatches,
        rng: &mut StdRng,
    ) -> StepRows {
        let k = self.cfg.align_negatives;
        let use_classes = self.cfg.use_class_embeddings
            && !labels.classes.is_empty()
            && self.ec1.num_classes() > 0;
        let ent = (!labels.entities.is_empty())
            .then(|| PairRows::sample(&labels.entities, k, kg2.num_entities() as u32, rng));
        let rel = (!labels.relations.is_empty()).then(|| {
            PairRows::sample(
                &labels.relations,
                k,
                self.model2.num_base_relations() as u32,
                rng,
            )
        });
        let cls = use_classes
            .then(|| PairRows::sample(&labels.classes, k, self.ec2.num_classes() as u32, rng));
        let mut rows = StepRows {
            ent,
            rel,
            cls,
            mined_l: Vec::new(),
            mined_r: Vec::new(),
            mined_soft: Vec::new(),
        };
        if rows.ent.is_some() {
            for m in &self.last_mined {
                if let Some((l, r)) = m.pair.as_entity() {
                    rows.mined_l.push(l.raw());
                    rows.mined_r.push(r.raw());
                    rows.mined_soft.push(m.soft_label);
                }
            }
        }
        rows
    }

    /// The closed-form step over the embedding tables `tp1` (left) and
    /// `tp2` (right); see [`JointModel::alignment_step`].
    fn kernel_step(
        &mut self,
        rows: &StepRows,
        tp1: &TableParams,
        tp2: &TableParams,
        opt: &mut Adam,
        focal_gamma: Option<f32>,
    ) -> f32 {
        let mut losses = Vec::new();
        let mut dense: Vec<(String, Tensor)> = Vec::new();
        let mut sparse: Vec<(&str, SparseGrad)> = Vec::new();
        let store = &self.store;
        let kinds = [
            (&rows.ent, &tp1.ent, &tp2.ent, map_names::A_ENT),
            (&rows.rel, &tp1.rel, &tp2.rel, map_names::A_REL),
        ];
        for (pair_rows, left_name, right_name, map_name) in kinds {
            let Some(pr) = pair_rows else {
                continue;
            };
            let (left, right, a) = (
                store.get(left_name),
                store.get(right_name),
                store.get(map_name),
            );
            let mut grad_map = |name: &str, t: &Tensor| {
                let fresh = || SparseGrad::with_rows(t.cols(), t.rows());
                self.grads.remove(name).unwrap_or_else(fresh)
            };
            let (mut left_grad, mut right_grad) =
                (grad_map(left_name, left), grad_map(right_name, right));
            let is_ent = map_name == map_names::A_ENT;
            let semi = (is_ent && !rows.mined_l.is_empty()).then(|| {
                semi_term(
                    &rows.mined_l,
                    &rows.mined_r,
                    &rows.mined_soft,
                    left,
                    right,
                    a,
                    &mut left_grad,
                    &mut right_grad,
                )
            });
            let (loss, grad) = pair_term(
                pr,
                left,
                right,
                a,
                focal_gamma,
                &mut left_grad,
                &mut right_grad,
                &mut self.pair_scratch,
            );
            losses.push(loss);
            let grad = match semi {
                Some((semi_loss, mut semi_grad)) => {
                    losses.push(semi_loss);
                    semi_grad.add_assign(&grad);
                    semi_grad
                }
                None => grad,
            };
            dense.push((map_name.to_owned(), grad));
            sparse.push((left_name, left_grad));
            sparse.push((right_name, right_grad));
        }
        if let Some(cr) = &rows.cls {
            let mut s = TapeSession::new();
            let loss = self.class_loss(&mut s, cr, focal_gamma);
            losses.push(s.graph.value(loss).item());
            s.backward(loss);
            dense.extend(s.take_grads().dense);
        }

        let Some(total) = losses.into_iter().reduce(|acc, l| acc + l) else {
            return 0.0;
        };
        for (name, grad) in &dense {
            opt.step(&mut self.store, name, grad);
        }
        for (name, mut grad) in sparse {
            opt.step_sparse(&mut self.store, name, &grad);
            grad.clear();
            self.grads.insert(name.to_owned(), grad);
        }
        total
    }

    /// The tape construction for dense mode and encoder models; see
    /// [`JointModel::alignment_step`].
    fn dense_tape_step(
        &mut self,
        rows: &StepRows,
        opt: &mut Adam,
        focal_gamma: Option<f32>,
    ) -> f32 {
        let mut s = TapeSession::new();
        let mut losses: Vec<Var> = Vec::new();

        // --- entity alignment O_ea (Eq. 5) ---
        if let Some(er) = &rows.ent {
            let a_ent = s.param(&self.store, map_names::A_ENT);
            let ents1 = self.model1.encode_entities(&mut s, &self.store, "g1.");
            let ents2 = self.model2.encode_entities(&mut s, &self.store, "g2.");
            let mapped = s.graph.matmul(ents1, a_ent);
            let (pos, neg) = er.sims_on_tape(&mut s, mapped, ents2);
            losses.push(softmax_pair_loss(&mut s.graph, pos, neg, focal_gamma));

            // --- semi-supervised O_semi (Eq. 10) ---
            if !rows.mined_l.is_empty() {
                let l = s.graph.gather_rows(mapped, &rows.mined_l);
                let r = s.graph.gather_rows(ents2, &rows.mined_r);
                let sims = s.graph.cosine_rows(l, r);
                losses.push(semi_supervised_loss(&mut s.graph, sims, &rows.mined_soft));
            }
        }

        // --- relation alignment O_ra (Eq. 8) ---
        if let Some(rr) = &rows.rel {
            let a_rel = s.param(&self.store, map_names::A_REL);
            let rels1 = self.model1.encode_relations(&mut s, &self.store, "g1.");
            let rels2 = self.model2.encode_relations(&mut s, &self.store, "g2.");
            let mapped = s.graph.matmul(rels1, a_rel);
            let (pos, neg) = rr.sims_on_tape(&mut s, mapped, rels2);
            losses.push(softmax_pair_loss(&mut s.graph, pos, neg, focal_gamma));
        }

        // --- class alignment O_ca ---
        if let Some(cr) = &rows.cls {
            losses.push(self.class_loss(&mut s, cr, focal_gamma));
        }
        self.finish_tape(s, losses, opt)
    }

    /// The tape construction of the closed-form step — the oracle
    /// [`JointModel::kernel_step`] must reproduce bit for bit.
    #[cfg(test)]
    fn sparse_tape_step(
        &mut self,
        rows: &StepRows,
        tp1: &TableParams,
        tp2: &TableParams,
        opt: &mut Adam,
        focal_gamma: Option<f32>,
    ) -> f32 {
        let mut s = TapeSession::new();
        let mut losses: Vec<Var> = Vec::new();
        if let Some(er) = &rows.ent {
            let a_ent = s.param(&self.store, map_names::A_ENT);
            let (pos, neg) = er.sparse_sims(&mut s, &self.store, &tp1.ent, &tp2.ent, a_ent);
            losses.push(softmax_pair_loss(&mut s.graph, pos, neg, focal_gamma));
            if !rows.mined_l.is_empty() {
                let ml = s.gather_param(&self.store, &tp1.ent, &rows.mined_l);
                let mm = s.graph.matmul(ml, a_ent);
                let mr = s.gather_param(&self.store, &tp2.ent, &rows.mined_r);
                let sims = s.graph.cosine_rows(mm, mr);
                losses.push(semi_supervised_loss(&mut s.graph, sims, &rows.mined_soft));
            }
        }
        if let Some(rr) = &rows.rel {
            let a_rel = s.param(&self.store, map_names::A_REL);
            let (pos, neg) = rr.sparse_sims(&mut s, &self.store, &tp1.rel, &tp2.rel, a_rel);
            losses.push(softmax_pair_loss(&mut s.graph, pos, neg, focal_gamma));
        }
        if let Some(cr) = &rows.cls {
            losses.push(self.class_loss(&mut s, cr, focal_gamma));
        }
        self.finish_tape(s, losses, opt)
    }

    /// The class alignment term `O_ca` on the tape. Class matrices are
    /// small derived leaves (gradients train the mapping matrix only).
    fn class_loss(&self, s: &mut TapeSession, rows: &PairRows, focal_gamma: Option<f32>) -> Var {
        let cls1 = class_matrix_on_tape(s, &self.store, &self.ec1, "g1.");
        let cls2 = class_matrix_on_tape(s, &self.store, &self.ec2, "g2.");
        let a_cls = s.param(&self.store, map_names::A_CLS);
        let mapped = s.graph.matmul(cls1, a_cls);
        let (pos, neg) = rows.sims_on_tape(s, mapped, cls2);
        softmax_pair_loss(&mut s.graph, pos, neg, focal_gamma)
    }

    /// Sum a tape step's losses, run backward and take the optimizer
    /// step; returns the total loss (0 when no term ran).
    fn finish_tape(&mut self, mut s: TapeSession, losses: Vec<Var>, opt: &mut Adam) -> f32 {
        let Some(total) = sum_losses(&mut s, losses) else {
            return 0.0;
        };
        let value = s.graph.value(total).item();
        s.backward(total);
        s.step(&mut self.store, opt);
        value
    }
}

/// Everything one alignment step samples before it computes anything.
struct StepRows {
    ent: Option<PairRows>,
    rel: Option<PairRows>,
    cls: Option<PairRows>,
    /// Mined potential matches `(left, right)` with their soft labels.
    mined_l: Vec<u32>,
    mined_r: Vec<u32>,
    mined_soft: Vec<f32>,
}

/// Put the dedicated class-embedding matrix `[w_c | b_c]` on the tape.
fn class_matrix_on_tape(
    s: &mut TapeSession,
    store: &ParamStore,
    ec: &EntityClassModel,
    prefix: &str,
) -> Var {
    // The class matrix is a direct function of the stored class parameters;
    // re-materialize it as a leaf per step (cheap: `n_c × 2d_c`), exactly
    // how the snapshot path consumes it. Gradients flow to the mapping
    // matrix; the class tables themselves train through `O_ec`.
    let m = ec.class_matrix(store, prefix);
    s.graph.leaf(m)
}

/// Sum a list of scalar losses on the tape; `None` when empty.
fn sum_losses(s: &mut TapeSession, losses: Vec<Var>) -> Option<Var> {
    let mut iter = losses.into_iter();
    let first = iter.next()?;
    Some(iter.fold(first, |acc, l| s.graph.add(acc, l)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use daakg_embed::EmbedConfig;
    use daakg_graph::kg::{example_dbpedia, example_wikidata};
    use daakg_graph::{ClassId, EntityId, RelationId};

    fn tiny_cfg() -> JointConfig {
        JointConfig {
            embed: EmbedConfig {
                dim: 8,
                class_dim: 4,
                epochs: 3,
                batch_size: 16,
                ..EmbedConfig::default()
            },
            align_epochs: 6,
            fine_tune_epochs: 2,
            ..JointConfig::default()
        }
    }

    fn example_labels(kg1: &KnowledgeGraph, kg2: &KnowledgeGraph) -> LabeledMatches {
        // Gold matches of the paper's Fig. 1 running example.
        let mut labels = LabeledMatches::new();
        for (a, b) in [
            ("Michael Jackson", "Q2831"),
            ("Gary_Indiana", "Gary"),
            ("LosAngeles", "LosAngeles"),
            ("UnitedStates", "USA"),
        ] {
            let (l, r) = (
                kg1.entity_by_name(a).unwrap(),
                kg2.entity_by_name(b).unwrap(),
            );
            labels.push(ElementPair::Entity(l, r));
        }
        for (a, b) in [
            ("spouse", "spouse"),
            ("country", "country"),
            ("birthPlace", "place of birth"),
        ] {
            let (l, r) = (
                kg1.relation_by_name(a).unwrap(),
                kg2.relation_by_name(b).unwrap(),
            );
            labels.push(ElementPair::Relation(l, r));
        }
        for (a, b) in [("Person", "human"), ("City", "city of the United States")] {
            let (l, r) = (kg1.class_by_name(a).unwrap(), kg2.class_by_name(b).unwrap());
            labels.push(ElementPair::Class(l, r));
        }
        labels
    }

    /// A KG of `n` entities over four relations and three classes, with
    /// enough triples per entity for several mini-batches.
    fn typed_kg(name: &str, n: usize, stride: usize) -> KnowledgeGraph {
        let mut b = KnowledgeGraph::builder(name);
        for i in 0..n {
            let (e, next, far) = (
                format!("e{i}"),
                format!("e{}", (i + 1) % n),
                format!("e{}", (i * stride + 3) % n),
            );
            b.triple_by_name(&e, &format!("r{}", i % 4), &next);
            b.triple_by_name(&e, &format!("r{}", (i / 4) % 4), &far);
            b.typing_by_name(&e, &format!("C{}", i % 3));
        }
        b.build()
    }

    fn assert_stores_bitwise_eq(got: &ParamStore, want: &ParamStore, what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: parameter count");
        for ((gn, gt), (wn, wt)) in got.iter().zip(want.iter()) {
            assert_eq!(gn, wn, "{what}: parameter names");
            assert_eq!(gt.shape(), wt.shape(), "{what}: {gn} shape");
            let bits = |t: &daakg_autograd::Tensor| -> Vec<u32> {
                t.as_slice().iter().map(|x| x.to_bits()).collect()
            };
            assert!(bits(gt) == bits(wt), "{what}: {gn} differs");
        }
    }

    /// The concurrent warm-up (two stores, two optimizers, one `join`)
    /// reproduces the sequential one-store, one-optimizer pass bit for
    /// bit, for every model family, with class embeddings on, at every
    /// shard count.
    #[test]
    fn warm_up_matches_the_sequential_reference_bitwise() {
        use daakg_embed::ModelKind;
        let (kg1, kg2) = (typed_kg("left", 70, 7), typed_kg("right", 52, 5));
        for model in [ModelKind::TransE, ModelKind::RotatE, ModelKind::CompGcn] {
            for threads in [0, 1, 2, 3] {
                let mut cfg = tiny_cfg();
                cfg.embed.model = model;
                cfg.embed.threads = threads;
                cfg.use_class_embeddings = true;
                let what = format!("{model} threads={threads}");
                let init = JointModel::new(cfg, &kg1, &kg2).unwrap();
                let mut got = JointModel::new(cfg, &kg1, &kg2).unwrap();
                let mut want = JointModel::new(cfg, &kg1, &kg2).unwrap();
                got.warm_up(&kg1, &kg2);
                want.warm_up_reference(&kg1, &kg2);
                assert_stores_bitwise_eq(got.store(), want.store(), &what);
                for prefix in ["g1.", "g2."] {
                    let moved =
                        got.store()
                            .iter()
                            .zip(init.store().iter())
                            .any(|((n, a), (_, b))| {
                                n.starts_with(prefix) && a.as_slice() != b.as_slice()
                            });
                    assert!(moved, "{what}: the {prefix} warm-up trained nothing");
                }
            }
        }
    }

    /// Two identical models, the second running its sparse alignment
    /// steps on the tape oracle.
    fn kernel_and_tape(
        cfg: JointConfig,
        kg1: &KnowledgeGraph,
        kg2: &KnowledgeGraph,
    ) -> (JointModel, JointModel) {
        let kernel = JointModel::new(cfg, kg1, kg2).unwrap();
        let mut tape = JointModel::new(cfg, kg1, kg2).unwrap();
        tape.tape_oracle = true;
        (kernel, tape)
    }

    fn assert_losses_bitwise_eq(got: &[f32], want: &[f32], what: &str) {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert!(!got.is_empty(), "{what}: no steps ran");
        assert_eq!(bits(got), bits(want), "{what}: loss trajectory");
    }

    /// The closed-form alignment step trains every parameter and every
    /// loss to the tape oracle's bits through `train`,
    /// `fine_tune_with_inferred` (focal, with injected hard and soft
    /// pairs) and `align_rounds`: with and without relation labels, mined
    /// pairs and class labels (whose tape term mixes with the kernel's
    /// gradients), across seeds. The warm-up inside `train` is the
    /// closed-form TransE kernel on both sides; `daakg-embed` checks it
    /// against its own tape oracle.
    #[test]
    fn alignment_kernel_matches_the_tape_oracle_bitwise() {
        let kg1 = example_dbpedia();
        let kg2 = example_wikidata();
        let full = example_labels(&kg1, &kg2);
        let no_rel = LabeledMatches {
            relations: Vec::new(),
            ..full.clone()
        };
        let no_cls = LabeledMatches {
            classes: Vec::new(),
            ..full.clone()
        };
        let inferred = vec![
            (full.entities[1].0, full.entities[1].1, 0.9f32),
            (full.entities[2].0, full.entities[2].1, 0.3f32),
        ];
        for seed in [1, 2, 29] {
            for (name, labels) in [("all", &full), ("no rel", &no_rel), ("no cls", &no_cls)] {
                for semi in [false, true] {
                    let mut cfg = tiny_cfg();
                    cfg.embed.seed = seed;
                    cfg.use_semi_supervision = semi;
                    // A low threshold so the mined set is non-empty.
                    cfg.semi_threshold = 0.0;
                    let what = format!("seed={seed} labels={name} semi={semi}");
                    let (mut kernel, mut tape) = kernel_and_tape(cfg, &kg1, &kg2);
                    kernel.train(&kg1, &kg2, labels);
                    tape.train(&kg1, &kg2, labels);
                    assert_eq!(semi, !kernel.last_mined().is_empty(), "{what}: mining");
                    assert_stores_bitwise_eq(kernel.store(), tape.store(), &what);
                    kernel.fine_tune_with_inferred(&kg1, &kg2, labels, &inferred, 0.5);
                    tape.fine_tune_with_inferred(&kg1, &kg2, labels, &inferred, 0.5);
                    assert_stores_bitwise_eq(kernel.store(), tape.store(), &what);
                    let got = kernel.align_rounds(&kg1, &kg2, labels, 3);
                    let want = tape.align_rounds(&kg1, &kg2, labels, 3);
                    assert_losses_bitwise_eq(&got, &want, &what);
                    assert_stores_bitwise_eq(kernel.store(), tape.store(), &what);
                }
            }
        }
    }

    /// Adversarial rows: a left and a right entity row of exactly zero
    /// (both cosine norms take the `1e-12` skip), a left entity labeled
    /// twice, a right entity matched twice, and a right side so small that
    /// positives are drawn again as negatives.
    #[test]
    fn alignment_kernel_matches_the_tape_oracle_on_adversarial_rows() {
        let (kg1, kg2) = (typed_kg("left", 12, 5), typed_kg("right", 3, 2));
        let labels = LabeledMatches {
            entities: vec![(0, 0), (1, 0), (2, 1), (2, 2), (3, 1)],
            ..LabeledMatches::new()
        };
        for focal in [false, true] {
            let mut cfg = tiny_cfg();
            cfg.semi_threshold = 0.0;
            let (mut kernel, mut tape) = kernel_and_tape(cfg, &kg1, &kg2);
            for m in [&mut kernel, &mut tape] {
                m.store.get_mut("g1.ent").row_mut(3).fill(0.0);
                m.store.get_mut("g2.ent").row_mut(2).fill(0.0);
                if focal {
                    m.fine_tune(&kg1, &kg2, &labels);
                }
            }
            let got = kernel.align_rounds(&kg1, &kg2, &labels, 4);
            let want = tape.align_rounds(&kg1, &kg2, &labels, 4);
            let what = format!("focal={focal}");
            assert_losses_bitwise_eq(&got, &want, &what);
            assert_stores_bitwise_eq(kernel.store(), tape.store(), &what);
        }
    }

    #[test]
    fn labeled_matches_collects_by_kind() {
        let mut m = LabeledMatches::new();
        assert!(m.is_empty());
        m.push(ElementPair::Entity(EntityId::new(0), EntityId::new(1)));
        m.push(ElementPair::Relation(
            RelationId::new(2),
            RelationId::new(3),
        ));
        m.push(ElementPair::Class(ClassId::new(4), ClassId::new(5)));
        assert_eq!(m.len(), 3);
        assert_eq!(m.entities, vec![(0, 1)]);
        assert_eq!(m.relations, vec![(2, 3)]);
        assert_eq!(m.classes, vec![(4, 5)]);
    }

    #[test]
    fn train_raises_labeled_pair_similarity() {
        let kg1 = example_dbpedia();
        let kg2 = example_wikidata();
        let labels = example_labels(&kg1, &kg2);
        assert!(!labels.is_empty());

        let mut model = JointModel::new(tiny_cfg(), &kg1, &kg2).unwrap();
        let before = model.snapshot(&kg1, &kg2);
        let snap = model.train(&kg1, &kg2, &labels);

        let (l, r) = labels.entities[0];
        let sim_before = before.sim_entity(l, r);
        let sim_after = snap.sim_entity(l, r);
        assert!(
            sim_after > sim_before - 1e-3,
            "training degraded the labeled pair: {sim_before} -> {sim_after}"
        );
        // The labeled pair should rank near the top for its query.
        let top = snap.top_k_entities(l, 3);
        assert!(
            top.iter().any(|&(e2, _)| e2 == r),
            "labeled match not in top-3: {top:?}"
        );
    }

    #[test]
    fn fine_tune_runs_and_snapshots() {
        let kg1 = example_dbpedia();
        let kg2 = example_wikidata();
        let labels = example_labels(&kg1, &kg2);
        let mut model = JointModel::new(tiny_cfg(), &kg1, &kg2).unwrap();
        model.train(&kg1, &kg2, &labels);
        let snap = model.fine_tune(&kg1, &kg2, &labels);
        let (n1, n2) = snap.entity_counts();
        assert_eq!(n1, kg1.num_entities());
        assert_eq!(n2, kg2.num_entities());
        // Weights were refreshed from a real snapshot: all in [0, 1].
        for w in snap.weights.left.iter().chain(&snap.weights.right) {
            assert!((0.0..=1.0 + 1e-5).contains(w), "weight out of range: {w}");
        }
    }

    #[test]
    fn semi_supervision_toggle_controls_mining() {
        let kg1 = example_dbpedia();
        let kg2 = example_wikidata();
        let labels = example_labels(&kg1, &kg2);
        let mut cfg = tiny_cfg();
        cfg.use_semi_supervision = false;
        let mut model = JointModel::new(cfg, &kg1, &kg2).unwrap();
        model.train(&kg1, &kg2, &labels);
        assert!(model.last_mined().is_empty());
    }

    #[test]
    fn fine_tune_with_inferred_injects_hard_and_soft_labels() {
        let kg1 = example_dbpedia();
        let kg2 = example_wikidata();
        let labels = example_labels(&kg1, &kg2);
        let mut model = JointModel::new(tiny_cfg(), &kg1, &kg2).unwrap();
        model.train(&kg1, &kg2, &labels);

        // Inject one confident inferred pair (hard label) and one weak one
        // (soft label); the update must run and refresh the snapshot.
        let (l, r) = labels.entities[1];
        let weak = labels.entities[2];
        let inferred = vec![(l, r, 0.9f32), (weak.0, weak.1, 0.2f32)];
        let snap = model.fine_tune_with_inferred(&kg1, &kg2, &labels, &inferred, 0.5);
        assert_eq!(snap.entity_counts().0, kg1.num_entities());
        let sim = snap.sim_entity(l, r);
        assert!((-1.0..=1.0).contains(&sim));
    }

    #[test]
    fn sparse_alignment_rounds_track_the_dense_oracle() {
        let kg1 = example_dbpedia();
        let kg2 = example_wikidata();
        let labels = example_labels(&kg1, &kg2);
        let run = |mode: daakg_embed::TrainMode| {
            let mut cfg = tiny_cfg();
            cfg.embed.mode = mode;
            let mut model = JointModel::new(cfg, &kg1, &kg2).unwrap();
            model.align_rounds(&kg1, &kg2, &labels, 8)
        };
        let dense = run(daakg_embed::TrainMode::Dense);
        let sparse = run(daakg_embed::TrainMode::Sparse);
        assert_eq!(dense.len(), sparse.len());
        // Same sampling, same math, different gather/matmul association:
        // the loss trajectories must track each other closely.
        for (e, (d, s)) in dense.iter().zip(&sparse).enumerate() {
            assert!(
                (d - s).abs() <= 0.05 * d.abs().max(1.0),
                "epoch {e}: dense loss {d} vs sparse loss {s}"
            );
        }
    }

    #[test]
    fn empty_labels_train_without_panicking() {
        let kg1 = example_dbpedia();
        let kg2 = example_wikidata();
        let mut model = JointModel::new(tiny_cfg(), &kg1, &kg2).unwrap();
        let snap = model.train(&kg1, &kg2, &LabeledMatches::new());
        assert_eq!(snap.entity_counts().0, kg1.num_entities());
    }
}
