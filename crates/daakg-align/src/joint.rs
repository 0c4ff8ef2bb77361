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

use crate::config::JointConfig;
use crate::losses::{semi_supervised_loss, softmax_pair_loss};
use crate::mapping::{init_mappings, map_names};
use crate::semi::{mine_potential_matches, PotentialMatch};
use crate::snapshot::AlignmentSnapshot;
use crate::weights::EntityWeights;
use daakg_autograd::{unique_rows, Adam, ParamStore, TapeSession, Var};
use daakg_embed::{build_model, EmbedTrainer, EntityClassModel, KgEmbedding, TrainMode};
use daakg_graph::{DaakgError, ElementPair, GoldAlignment, KnowledgeGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
        })
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
        self.warm_up(kg1, kg2);

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
    /// Two constructions share identical sampling (all negatives are drawn
    /// **before** the tape is built, so the RNG sequence matches across
    /// modes):
    ///
    /// * **dense** (the retained oracle, also the fallback for encoder
    ///   models without raw tables): map the *whole* left table through the
    ///   mapping matrix, then gather pair rows — `O(n·d²)` per step;
    /// * **sparse** ([`TrainMode::Sparse`] + table models): gather only the
    ///   labeled/mined/negative rows via external gathers, map just those —
    ///   `O(pairs·k·d²)` per step — and apply sparse row-updates to the
    ///   embedding tables with lazy Adam.
    fn alignment_step(
        &mut self,
        kg2: &KnowledgeGraph,
        labels: &LabeledMatches,
        opt: &mut Adam,
        rng: &mut StdRng,
        focal_gamma: Option<f32>,
    ) -> f32 {
        let k = self.cfg.align_negatives;
        let use_classes = self.cfg.use_class_embeddings
            && !labels.classes.is_empty()
            && self.ec1.num_classes() > 0;

        // Presample every negative before building the tape.
        let ent_rows = (!labels.entities.is_empty())
            .then(|| PairRows::sample(&labels.entities, k, kg2.num_entities() as u32, rng));
        let rel_rows = (!labels.relations.is_empty()).then(|| {
            PairRows::sample(
                &labels.relations,
                k,
                self.model2.num_base_relations() as u32,
                rng,
            )
        });
        let cls_rows = use_classes
            .then(|| PairRows::sample(&labels.classes, k, self.ec2.num_classes() as u32, rng));

        // Mined potential matches feeding the semi-supervised term.
        let mut mined_l: Vec<u32> = Vec::new();
        let mut mined_r: Vec<u32> = Vec::new();
        let mut mined_soft: Vec<f32> = Vec::new();
        if ent_rows.is_some() {
            for m in &self.last_mined {
                if let Some((l, r)) = m.pair.as_entity() {
                    mined_l.push(l.raw());
                    mined_r.push(r.raw());
                    mined_soft.push(m.soft_label);
                }
            }
        }

        let tables = if self.cfg.embed.mode == TrainMode::Sparse {
            self.model1
                .table_params("g1.")
                .zip(self.model2.table_params("g2."))
        } else {
            None
        };

        // Lazy sparse-Adam rows the tape will read must be current first.
        if let Some((tp1, tp2)) = &tables {
            if let Some(rows) = &ent_rows {
                opt.refresh_rows(
                    &mut self.store,
                    &tp1.ent,
                    &unique_rows(&[&rows.left_once, &mined_l]),
                );
                opt.refresh_rows(
                    &mut self.store,
                    &tp2.ent,
                    &unique_rows(&[&rows.pos_rrows, &rows.neg_rrows, &mined_r]),
                );
            }
            if let Some(rows) = &rel_rows {
                opt.refresh_rows(&mut self.store, &tp1.rel, &unique_rows(&[&rows.left_once]));
                opt.refresh_rows(
                    &mut self.store,
                    &tp2.rel,
                    &unique_rows(&[&rows.pos_rrows, &rows.neg_rrows]),
                );
            }
        }

        let mut s = TapeSession::new();
        let mut losses: Vec<Var> = Vec::new();

        // --- entity alignment O_ea (Eq. 5) ---
        if let Some(rows) = &ent_rows {
            let a_ent = s.param(&self.store, map_names::A_ENT);
            match &tables {
                Some((tp1, tp2)) => {
                    let (pos, neg) =
                        rows.sparse_sims(&mut s, &self.store, &tp1.ent, &tp2.ent, a_ent);
                    losses.push(softmax_pair_loss(&mut s.graph, pos, neg, focal_gamma));

                    // --- semi-supervised O_semi (Eq. 10) ---
                    if !mined_l.is_empty() {
                        let ml = s.gather_param(&self.store, &tp1.ent, &mined_l);
                        let mm = s.graph.matmul(ml, a_ent);
                        let mr = s.gather_param(&self.store, &tp2.ent, &mined_r);
                        let sims = s.graph.cosine_rows(mm, mr);
                        losses.push(semi_supervised_loss(&mut s.graph, sims, &mined_soft));
                    }
                }
                None => {
                    let ents1 = self.model1.encode_entities(&mut s, &self.store, "g1.");
                    let ents2 = self.model2.encode_entities(&mut s, &self.store, "g2.");
                    let mapped = s.graph.matmul(ents1, a_ent);
                    let (pos, neg) = rows.sims_on_tape(&mut s, mapped, ents2);
                    losses.push(softmax_pair_loss(&mut s.graph, pos, neg, focal_gamma));

                    if !mined_l.is_empty() {
                        let l = s.graph.gather_rows(mapped, &mined_l);
                        let r = s.graph.gather_rows(ents2, &mined_r);
                        let sims = s.graph.cosine_rows(l, r);
                        losses.push(semi_supervised_loss(&mut s.graph, sims, &mined_soft));
                    }
                }
            }
        }

        // --- relation alignment O_ra (Eq. 8) ---
        if let Some(rows) = &rel_rows {
            let a_rel = s.param(&self.store, map_names::A_REL);
            match &tables {
                Some((tp1, tp2)) => {
                    let (pos, neg) =
                        rows.sparse_sims(&mut s, &self.store, &tp1.rel, &tp2.rel, a_rel);
                    losses.push(softmax_pair_loss(&mut s.graph, pos, neg, focal_gamma));
                }
                None => {
                    let rels1 = self.model1.encode_relations(&mut s, &self.store, "g1.");
                    let rels2 = self.model2.encode_relations(&mut s, &self.store, "g2.");
                    let mapped = s.graph.matmul(rels1, a_rel);
                    let (pos, neg) = rows.sims_on_tape(&mut s, mapped, rels2);
                    losses.push(softmax_pair_loss(&mut s.graph, pos, neg, focal_gamma));
                }
            }
        }

        // --- class alignment O_ca ---
        //
        // Class matrices are small derived leaves (gradients train the
        // mapping matrix only), so the dense construction stays.
        if let Some(rows) = &cls_rows {
            let cls1 = class_matrix_on_tape(&mut s, &self.store, &self.ec1, "g1.");
            let cls2 = class_matrix_on_tape(&mut s, &self.store, &self.ec2, "g2.");
            let a_cls = s.param(&self.store, map_names::A_CLS);
            let mapped = s.graph.matmul(cls1, a_cls);
            let (pos, neg) = rows.sims_on_tape(&mut s, mapped, cls2);
            losses.push(softmax_pair_loss(&mut s.graph, pos, neg, focal_gamma));
        }

        let Some(total) = sum_losses(&mut s, losses) else {
            return 0.0;
        };
        let value = s.graph.value(total).item();
        s.backward(total);
        s.step(&mut self.store, opt);
        value
    }
}

/// Presampled row indices for the softmax pair loss: each labeled pair
/// contributes `align_negatives` rows pairing the positive similarity with
/// a sampled-negative similarity. Sampling happens before the tape exists,
/// so the dense and sparse constructions consume the RNG identically.
struct PairRows {
    /// Left row per pair-negative slot (`left_once[rep[i]]`, expanded).
    lrows: Vec<u32>,
    /// Left row of each labeled pair, once.
    left_once: Vec<u32>,
    /// Expansion map: slot `i` belongs to pair `rep[i]`.
    rep: Vec<u32>,
    pos_rrows: Vec<u32>,
    neg_rrows: Vec<u32>,
}

impl PairRows {
    fn sample(pairs: &[(u32, u32)], negatives: usize, num_right: u32, rng: &mut StdRng) -> Self {
        let k = negatives.max(1);
        let mut lrows = Vec::with_capacity(pairs.len() * k);
        let mut left_once = Vec::with_capacity(pairs.len());
        let mut rep = Vec::with_capacity(pairs.len() * k);
        let mut pos_rrows = Vec::with_capacity(pairs.len() * k);
        let mut neg_rrows = Vec::with_capacity(pairs.len() * k);
        for (p, &(l, r)) in pairs.iter().enumerate() {
            left_once.push(l);
            for _ in 0..k {
                lrows.push(l);
                rep.push(p as u32);
                pos_rrows.push(r);
                // Rejection-sample a right element different from the match.
                let mut neg = rng.gen_range(0..num_right);
                for _ in 0..8 {
                    if neg != r {
                        break;
                    }
                    neg = rng.gen_range(0..num_right);
                }
                neg_rrows.push(neg);
            }
        }
        Self {
            lrows,
            left_once,
            rep,
            pos_rrows,
            neg_rrows,
        }
    }

    /// The dense-construction similarity columns: gather the presampled
    /// rows from the mapped left matrix and the right matrix on the tape.
    fn sims_on_tape(&self, s: &mut TapeSession, mapped_left: Var, right: Var) -> (Var, Var) {
        let l = s.graph.gather_rows(mapped_left, &self.lrows);
        let rp = s.graph.gather_rows(right, &self.pos_rrows);
        let rn = s.graph.gather_rows(right, &self.neg_rrows);
        let pos = s.graph.cosine_rows(l, rp);
        let l2 = s.graph.gather_rows(mapped_left, &self.lrows);
        let neg = s.graph.cosine_rows(l2, rn);
        (pos, neg)
    }

    /// The sparse-construction similarity columns: map each pair's left
    /// row through the mapping matrix **once**, expand to the pair×k
    /// slots via a cheap tape gather, and cosine against externally
    /// gathered right rows. Same math as [`PairRows::sims_on_tape`] over a
    /// fully mapped table, at `O(pairs·d²)` instead of `O(n·d²)` — and
    /// without the k-fold redundant mapping of repeated left rows.
    fn sparse_sims(
        &self,
        s: &mut TapeSession,
        store: &ParamStore,
        left_table: &str,
        right_table: &str,
        a_map: Var,
    ) -> (Var, Var) {
        let l_raw = s.gather_param(store, left_table, &self.left_once);
        let mapped_once = s.graph.matmul(l_raw, a_map);
        let mapped = s.graph.gather_rows(mapped_once, &self.rep);
        let rp = s.gather_param(store, right_table, &self.pos_rrows);
        let rn = s.gather_param(store, right_table, &self.neg_rrows);
        let pos = s.graph.cosine_rows(mapped, rp);
        let neg = s.graph.cosine_rows(mapped, rn);
        (pos, neg)
    }
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
