//! The full RAPID model: estimators, output heads, training, and the
//! `ReRanker` implementation.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rapid_autograd::optim::Adam;
use rapid_autograd::{ParamStore, Tape, Var};
use rapid_data::Dataset;
use rapid_nn::{Activation, Mlp};
use rapid_rerankers::{FitReport, PreparedList, ReRanker, RerankInput};
use rapid_tensor::Matrix;

use crate::config::{OutputMode, RapidConfig};
use crate::diversity_estimator::DiversityEstimator;
use crate::relevance_estimator::RelevanceEstimator;

/// The RAPID re-ranker (§III). Construct with [`Rapid::new`], train with
/// [`ReRanker::fit`], apply with [`ReRanker::rerank`].
pub struct Rapid {
    config: RapidConfig,
    store: ParamStore,
    relevance: RelevanceEstimator,
    diversity: Option<DiversityEstimator>,
    head_mean: Mlp,
    /// Present only in probabilistic mode (Eq. 8).
    head_std: Option<Mlp>,
}

impl Rapid {
    /// Builds an untrained RAPID for the dataset's shapes.
    pub fn new(ds: &Dataset, config: RapidConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut store = ParamStore::new();

        let rel_in = RelevanceEstimator::input_dim(ds);
        let relevance = RelevanceEstimator::new(
            &mut store,
            "rapid.rel",
            config.relevance_encoder,
            rel_in,
            config.hidden,
            config.max_len,
            &mut rng,
        );

        let diversity = config.use_diversity.then(|| {
            DiversityEstimator::new(
                &mut store,
                "rapid.div",
                ds,
                config.behavior_encoder,
                config.hidden,
                config.behavior_len,
                &mut rng,
            )
        });

        let head_in = relevance.out_dim()
            + if config.use_diversity {
                ds.num_topics()
            } else {
                0
            };
        let head_mean = Mlp::new(
            &mut store,
            "rapid.head_mean",
            &[head_in, config.hidden, 1],
            Activation::Relu,
            &mut rng,
        );
        let head_std = (config.output == OutputMode::Probabilistic).then(|| {
            Mlp::new(
                &mut store,
                "rapid.head_std",
                &[head_in, config.hidden, 1],
                Activation::Relu,
                &mut rng,
            )
            .with_output_activation(Activation::Softplus)
        });

        Self {
            config,
            store,
            relevance,
            diversity,
            head_mean,
            head_std,
        }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &RapidConfig {
        &self.config
    }

    /// Number of scalar parameters.
    pub fn num_weights(&self) -> usize {
        self.store.num_weights()
    }

    /// The learned preference distribution `θ̂` for a user (used by the
    /// Fig. 5 case study). `None` for the RAPID-RNN ablation.
    pub fn preference_distribution(&self, ds: &Dataset, user: usize) -> Option<Vec<f32>> {
        let div = self.diversity.as_ref()?;
        let mut tape = Tape::new();
        let theta = div.preference_distribution(&mut tape, &self.store, ds, user);
        Some(tape.value(theta).as_slice().to_vec())
    }

    /// Builds the fused head input `[H_R, Δ_R]` (Eq. 7/8 input). The
    /// prepared feature matrix has the exact `[x_u, x_v, τ_v, s]` layout
    /// of [`RelevanceEstimator::item_representations`], and the prepared
    /// novelty matrix is `d_R` (Eq. 5), so nothing is re-gathered here.
    fn head_input(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        ds: &Dataset,
        prep: &PreparedList,
    ) -> Var {
        let reps = tape.constant(prep.features.clone());
        let h_r = self.relevance.forward(tape, store, reps);
        match &self.diversity {
            Some(div) => {
                let delta = div.personalized_gain(tape, store, ds, prep.user(), &prep.novelty);
                tape.concat_cols(&[h_r, delta])
            }
            None => h_r,
        }
    }

    /// Training-time scores `(L, 1)`: deterministic logits (Eq. 7) or the
    /// reparameterized sample `φ̂ + ξ ⊙ Σ̂` (Eq. 9).
    fn train_scores(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        ds: &Dataset,
        prep: &PreparedList,
        noise_rng: &mut StdRng,
    ) -> Var {
        let fused = self.head_input(tape, store, ds, prep);
        let mean = self.head_mean.forward(tape, store, fused);
        match &self.head_std {
            None => mean,
            Some(head_std) => {
                let std = head_std.forward(tape, store, fused);
                let xi = Matrix::rand_normal(prep.len(), 1, 0.0, 1.0, noise_rng);
                let xi = tape.constant(xi);
                let noise = tape.mul(xi, std);
                tape.add(mean, noise)
            }
        }
    }

    /// Writes a training checkpoint (all parameters) to `w`.
    pub fn save(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        self.store.save(w)
    }

    /// Restores a checkpoint written by [`Rapid::save`] into this model.
    /// The model must have been constructed with the same configuration
    /// and dataset shapes (parameter names and shapes must match).
    ///
    /// # Errors
    /// Returns `InvalidData` on format, name, or shape mismatches.
    pub fn load(&mut self, r: &mut impl std::io::Read) -> std::io::Result<()> {
        let loaded = ParamStore::load(r)?;
        self.store.restore_from(&loaded)
    }

    /// Restores this model's parameters from an in-memory store — the
    /// hot-load path for serving, where the store comes from a v2
    /// training checkpoint (`rapid_autograd::Checkpoint::load_path`)
    /// rather than a `Rapid::save` stream.
    ///
    /// # Errors
    /// Returns `InvalidData` on name or shape mismatches.
    pub fn restore(&mut self, params: &ParamStore) -> std::io::Result<()> {
        self.store.restore_from(params)
    }

    /// Records the inference-time score graph `(L, 1)` onto `tape`:
    /// logits (det) or the UCB `φ̂ + Σ̂` (Eq. 10).
    fn score_graph(&self, tape: &mut Tape, ds: &Dataset, prep: &PreparedList) -> Var {
        let fused = self.head_input(tape, &self.store, ds, prep);
        let mean = self.head_mean.forward(tape, &self.store, fused);
        match &self.head_std {
            None => mean,
            Some(head_std) => {
                let std = head_std.forward(tape, &self.store, fused);
                tape.add(mean, std)
            }
        }
    }

    /// Inference-time scores: logits (det) or the UCB `φ̂ + Σ̂` (Eq. 10).
    pub fn scores_prepared(&self, ds: &Dataset, prep: &PreparedList) -> Vec<f32> {
        let mut tape = Tape::new();
        let out = self.score_graph(&mut tape, ds, prep);
        tape.value(out).as_slice().to_vec()
    }

    /// Legacy shim of [`Rapid::scores_prepared`] for `(ds, input)`
    /// callers: prepares the list on the fly.
    pub fn scores(&self, ds: &Dataset, input: &RerankInput) -> Vec<f32> {
        self.scores_prepared(ds, &PreparedList::from_input(ds, input.clone()))
    }

    /// The shared training body behind `fit_prepared` (no checkpointing)
    /// and `fit_resumable` (crash-safe periodic checkpoints + resume).
    ///
    /// Resume is *fast-forward replay*: the checkpoint restores
    /// parameters, Adam state, and the epoch cursor, then both RNG
    /// streams — the epoch shuffle and (probabilistic head only) the
    /// reparameterization noise — are recreated from their seeds and
    /// advanced through the completed epochs' draws, so the remaining
    /// epochs are bit-identical to an uninterrupted run's.
    fn fit_impl(
        &mut self,
        ds: &Dataset,
        lists: &[PreparedList],
        ckpt: Option<&rapid_autograd::CheckpointConfig>,
    ) -> FitReport {
        use rand::seq::SliceRandom;
        let mut optimizer = Adam::new(self.config.lr);
        let checkpointer = ckpt.map(|c| rapid_autograd::Checkpointer::new(c.clone()));
        let start_epoch = rapid_rerankers::resume_into(
            checkpointer.as_ref(),
            self.name(),
            &mut self.store,
            &mut optimizer,
        )
        .min(self.config.epochs);
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut noise_rng = StdRng::seed_from_u64(self.config.seed ^ 0xdead_beef);
        let mut order: Vec<usize> = (0..lists.len()).collect();
        let batch = self.config.batch.max(1);
        for _ in 0..start_epoch {
            order.shuffle(&mut rng);
            if self.head_std.is_some() {
                // Replay the per-list noise draws of the completed
                // epochs in chunk order, discarding the samples.
                for chunk in order.chunks(batch) {
                    for &i in chunk {
                        let _ = Matrix::rand_normal(lists[i].len(), 1, 0.0, 1.0, &mut noise_rng);
                    }
                }
            }
        }
        let mut tape = Tape::new();
        // This loop differs from `fit_listwise_opts` only in the
        // reparameterization noise fed through `train_scores`; the
        // backward/update path is the shared `TrainStep`.
        let mut step =
            rapid_rerankers::TrainStep::new(self.name(), lists.len(), self.config.batch, Some(5.0));
        if let Some(ck) = checkpointer {
            step = step.with_checkpointer(ck);
        }
        step.resume_from(start_epoch);
        for _ in start_epoch..self.config.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(batch) {
                step.begin_batch();
                tape.clear();
                let mut losses = Vec::with_capacity(chunk.len());
                for &i in chunk {
                    let prep = &lists[i];
                    let scores =
                        self.train_scores(&mut tape, &self.store, ds, prep, &mut noise_rng);
                    let clicks = prep.labels();
                    let targets = Matrix::from_vec(
                        clicks.len(),
                        1,
                        clicks.iter().map(|&c| if c { 1.0 } else { 0.0 }).collect(),
                    );
                    losses.push(tape.bce_with_logits(scores, &targets));
                }
                let stacked = tape.concat_cols(&losses);
                let total = tape.mean_all(stacked);
                step.step(&mut tape, total, &mut self.store, &mut optimizer);
            }
        }
        step.finish(self.config.epochs)
    }
}

impl ReRanker for Rapid {
    fn name(&self) -> &'static str {
        self.config.variant_name()
    }

    fn fit_prepared(&mut self, ds: &Dataset, lists: &[PreparedList]) -> FitReport {
        self.fit_impl(ds, lists, None)
    }

    fn fit_resumable(
        &mut self,
        ds: &Dataset,
        lists: &[PreparedList],
        ckpt: &rapid_autograd::CheckpointConfig,
    ) -> FitReport {
        self.fit_impl(ds, lists, Some(ckpt))
    }

    fn rerank_prepared(&self, ds: &Dataset, prep: &PreparedList) -> Vec<usize> {
        let scores = self.scores_prepared(ds, prep);
        let mut order: Vec<usize> = (0..scores.len()).collect();
        order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
        order
    }

    fn record_graph(&self, ds: &Dataset, prep: &PreparedList, tape: &mut Tape) -> Option<Var> {
        Some(self.score_graph(tape, ds, prep))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_rerankers::is_permutation;

    mod fixtures {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use rapid_click::Dcm;
        use rapid_data::{generate, DataConfig, Dataset, Flavor};
        use rapid_rerankers::{RerankInput, TrainSample};

        pub fn tiny_dataset(seed: u64) -> Dataset {
            let mut c = DataConfig::new(Flavor::MovieLens);
            c.num_users = 50;
            c.num_items = 250;
            c.ranker_train_interactions = 300;
            c.rerank_train_requests = 150;
            c.test_requests = 20;
            c.seed = seed;
            generate(&c)
        }

        pub fn click_samples(ds: &Dataset, n: usize, seed: u64) -> Vec<TrainSample> {
            let mut rng = StdRng::seed_from_u64(seed);
            let dcm = Dcm::standard(ds.config.list_len, 0.5);
            (0..n)
                .map(|i| {
                    let req = &ds.rerank_train[i % ds.rerank_train.len()];
                    let mut scored: Vec<(usize, f32)> = req
                        .candidates
                        .iter()
                        .map(|&v| {
                            let noise: f32 = rng.gen_range(-0.5..0.5);
                            (v, ds.attraction(req.user, v) + noise)
                        })
                        .collect();
                    scored.sort_by(|a, b| b.1.total_cmp(&a.1));
                    let input = RerankInput {
                        user: req.user,
                        items: scored.iter().map(|x| x.0).collect(),
                        init_scores: scored.iter().map(|x| x.1).collect(),
                    };
                    let phi = dcm.attractions(ds, input.user, &input.items);
                    let clicks = dcm.simulate(&phi, &mut rng);
                    TrainSample { input, clicks }
                })
                .collect()
        }

        pub fn top_click_rate(
            samples: &[TrainSample],
            mut policy: impl FnMut(&RerankInput) -> Vec<usize>,
        ) -> f32 {
            let total: f32 = samples
                .iter()
                .map(|s| {
                    let perm = policy(&s.input);
                    perm.iter().take(5).filter(|&&i| s.clicks[i]).count() as f32
                })
                .sum();
            total / samples.len() as f32
        }
    }

    use fixtures::*;

    #[test]
    fn every_variant_builds_and_outputs_permutations() {
        let ds = tiny_dataset(21);
        let samples = click_samples(&ds, 8, 1);
        for config in [
            RapidConfig::deterministic(),
            RapidConfig::probabilistic(),
            RapidConfig::without_diversity(),
            RapidConfig::mean_behavior(),
            RapidConfig::transformer_relevance(),
        ] {
            let mut model = Rapid::new(
                &ds,
                RapidConfig {
                    epochs: 1,
                    ..config
                },
            );
            model.fit(&ds, &samples);
            let perm = model.rerank(&ds, &samples[0].input);
            assert!(
                is_permutation(&perm, samples[0].input.len()),
                "variant {}",
                model.name()
            );
        }
    }

    #[test]
    fn first_batch_memory_stays_within_the_static_liveness_bound() {
        // Validates `rapid_check::analyze_liveness` against reality:
        // record the exact graph `fit` builds for one training batch
        // (probabilistic variant — the largest graph, with both heads
        // and the reparameterization noise), then check that what the
        // tape actually allocates after a full backward pass never
        // exceeds the static peak-live-bytes bound.
        let ds = tiny_dataset(25);
        let samples = click_samples(&ds, 8, 5);
        let config = RapidConfig {
            epochs: 1,
            ..RapidConfig::probabilistic()
        };
        let batch = config.batch;
        let mut model = Rapid::new(&ds, config);
        let lists: Vec<_> = samples
            .iter()
            .map(|s| rapid_rerankers::PreparedList::from_sample(&ds, s))
            .collect();
        let mut noise_rng = StdRng::seed_from_u64(9);

        let mut tape = Tape::new();
        let mut losses = Vec::new();
        for prep in lists.iter().take(batch) {
            let scores = model.train_scores(&mut tape, &model.store, &ds, prep, &mut noise_rng);
            let clicks = prep.labels();
            let targets = Matrix::from_vec(
                clicks.len(),
                1,
                clicks.iter().map(|&c| if c { 1.0 } else { 0.0 }).collect(),
            );
            losses.push(tape.bce_with_logits(scores, &targets));
        }
        let stacked = tape.concat_cols(&losses);
        let loss = tape.mean_all(stacked);

        let report = rapid_check::analyze_liveness(&tape, loss.index());
        assert!(report.fwd_peak_bytes > 0);
        assert!(report.train_peak_bytes >= report.fwd_peak_bytes);

        let cone = rapid_check::backward_cone(&tape, loss.index());
        tape.backward(loss, &mut model.store);
        // Backward allocates a gradient for exactly the static cone:
        // ancestors of the loss that need one.
        for (i, &in_cone) in cone.iter().enumerate() {
            assert_eq!(
                tape.node_grad_shape(i).is_some(),
                in_cone,
                "node {i} ({})",
                tape.node_op(i).tag()
            );
        }
        assert_eq!(tape.grad_bytes(), report.grad_bytes);
        let measured = tape.value_bytes() + tape.grad_bytes();
        assert!(
            measured <= report.train_peak_bytes,
            "measured first-batch allocation {measured} B exceeds the \
             static bound {} B",
            report.train_peak_bytes
        );
        // The plan's reusable pool should beat keeping every value live
        // on a graph this deep, or the pass is not planning anything.
        assert!(
            report.plan.pool_bytes() < report.total_value_bytes,
            "buffer reuse saved nothing: pool {} B vs total {} B",
            report.plan.pool_bytes(),
            report.total_value_bytes
        );
    }

    #[test]
    fn learns_to_beat_the_initial_order() {
        let ds = tiny_dataset(22);
        let samples = click_samples(&ds, 450, 3);
        let mut model = Rapid::new(
            &ds,
            RapidConfig {
                epochs: 15,
                ..RapidConfig::probabilistic()
            },
        );
        model.fit(&ds, &samples);
        let before = top_click_rate(&samples[..150], |inp| (0..inp.len()).collect());
        let after = top_click_rate(&samples[..150], |inp| model.rerank(&ds, inp));
        assert!(
            after > before * 1.02,
            "RAPID should beat the initial order: {after} vs {before}"
        );
    }

    #[test]
    fn preference_distribution_varies_across_users() {
        // θ̂ is identified only up to per-topic monotone transforms (the
        // fusion MLP can absorb sign and scale), so the testable claim
        // is *personalization*: different users' histories must yield
        // different preference distributions, and the spread must be
        // meaningful relative to the (0,1) range.
        let ds = tiny_dataset(23);
        let samples = click_samples(&ds, 300, 5);
        let mut model = Rapid::new(
            &ds,
            RapidConfig {
                epochs: 10,
                ..RapidConfig::probabilistic()
            },
        );
        model.fit(&ds, &samples);

        let thetas: Vec<Vec<f32>> = (0..ds.users.len())
            .map(|u| model.preference_distribution(&ds, u).unwrap())
            .collect();
        // Per-topic standard deviation across users, averaged.
        let m = ds.num_topics();
        let n = thetas.len() as f32;
        let mut mean_spread = 0.0f32;
        for j in 0..m {
            let col: Vec<f32> = thetas.iter().map(|t| t[j]).collect();
            let mu = col.iter().sum::<f32>() / n;
            let var = col.iter().map(|v| (v - mu) * (v - mu)).sum::<f32>() / n;
            mean_spread += var.sqrt() / m as f32;
        }
        assert!(
            mean_spread > 0.01,
            "θ̂ should differ across users (mean per-topic std {mean_spread})"
        );
    }

    #[test]
    fn diverse_users_receive_more_diverse_lists() {
        // The Fig. 5 behaviour (RQ5): after training on λ=0.5 feedback,
        // RAPID's re-ranked lists for diverse-preference users must
        // cover more topics than those for focused users, *relative to
        // what the initial lists already offered*.
        let ds = tiny_dataset(26);
        let samples = click_samples(&ds, 450, 6);
        let mut model = Rapid::new(
            &ds,
            RapidConfig {
                epochs: 12,
                ..RapidConfig::probabilistic()
            },
        );
        model.fit(&ds, &samples);

        // Median split of the user population by preference entropy.
        let mut entropies: Vec<f32> = ds.users.iter().map(|u| u.pref_entropy()).collect();
        entropies.sort_by(f32::total_cmp);
        let median = entropies[entropies.len() / 2];

        let mut uplift_diverse = Vec::new();
        let mut uplift_focused = Vec::new();
        for s in &samples[..200] {
            let covs = s.input.coverages(&ds);
            let init_div = rapid_diversity::topic_coverage_at_k(&covs, 5);
            let perm = model.rerank(&ds, &s.input);
            let reordered: Vec<&[f32]> = perm.iter().map(|&p| covs[p]).collect();
            let new_div = rapid_diversity::topic_coverage_at_k(&reordered, 5);
            let uplift = new_div - init_div;
            if ds.users[s.input.user].pref_entropy() > median {
                uplift_diverse.push(uplift);
            } else {
                uplift_focused.push(uplift);
            }
        }
        assert!(!uplift_diverse.is_empty() && !uplift_focused.is_empty());
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
        let (md, mf) = (mean(&uplift_diverse), mean(&uplift_focused));
        assert!(
            md > mf,
            "diversity uplift should be larger for diverse users: {md} vs {mf}"
        );
    }

    #[test]
    fn probabilistic_scores_exceed_deterministic_mean() {
        // UCB = mean + std with std > 0 (softplus), so the probabilistic
        // inference score is strictly larger than its own mean head.
        let ds = tiny_dataset(24);
        let samples = click_samples(&ds, 4, 2);
        let model = Rapid::new(&ds, RapidConfig::probabilistic());
        let input = &samples[0].input;
        let prep = PreparedList::from_input(&ds, input.clone());

        let mut tape = Tape::new();
        let fused = model.head_input(&mut tape, &model.store, &ds, &prep);
        let mean = model.head_mean.forward(&mut tape, &model.store, fused);
        let mean_vals = tape.value(mean).as_slice().to_vec();
        let ucb = model.scores(&ds, input);
        for (u, m) in ucb.iter().zip(&mean_vals) {
            assert!(u > m, "UCB {u} must exceed mean {m}");
        }
    }

    #[test]
    fn rnn_ablation_has_fewer_parameters() {
        let ds = tiny_dataset(25);
        let full = Rapid::new(&ds, RapidConfig::probabilistic());
        let rnn = Rapid::new(&ds, RapidConfig::without_diversity());
        assert!(rnn.num_weights() < full.num_weights());
    }
}
