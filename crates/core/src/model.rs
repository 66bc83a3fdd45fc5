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
use std::sync::OnceLock;

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
    /// `θ̂` per dataset user for inference, filled on first use and
    /// emptied by every path that writes `store`.
    theta_cache: Vec<OnceLock<Matrix>>,
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
            theta_cache: ds.users.iter().map(|_| OnceLock::new()).collect(),
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
    /// Fig. 5 case study), read from the same cache inference scores
    /// with. `None` for the RAPID-RNN ablation.
    pub fn preference_distribution(&self, ds: &Dataset, user: usize) -> Option<Vec<f32>> {
        self.cached_theta(ds, user)
            .map(|theta| theta.as_slice().to_vec())
    }

    /// `θ̂` for `user` under the current parameters, computed on a fresh
    /// tape on first use. `θ̂` depends only on the parameters and the
    /// behavior planes built at construction, never on a candidate list,
    /// so the cached value is exactly what a recorded diversity subgraph
    /// would produce.
    fn cached_theta(&self, ds: &Dataset, user: usize) -> Option<&Matrix> {
        let div = self.diversity.as_ref()?;
        Some(self.theta_cache[user].get_or_init(|| {
            let mut tape = Tape::new();
            let theta = div.preference_distribution(&mut tape, &self.store, ds, user);
            tape.value(theta).clone()
        }))
    }

    /// Empties the `θ̂` cache; called before anything writes the store.
    fn forget_thetas(&mut self) {
        for slot in &mut self.theta_cache {
            slot.take();
        }
    }

    /// Records the scores `(L, 1)` of one list.
    ///
    /// `theta` is the cached `θ̂` value for inference; `None` records the
    /// diversity estimator's subgraph in its place (training and
    /// `record_graph`). Everything after `θ̂` — `Δ_R = θ̂ ⊙ d_R` (Eq. 6),
    /// the fused input `[H_R, Δ_R]` and the heads — is the same graph
    /// either way. The prepared feature matrix has the exact
    /// `[x_u, x_v, τ_v, s]` layout of
    /// [`RelevanceEstimator::item_representations`], and the prepared
    /// novelty matrix is `d_R` (Eq. 5), so nothing is re-gathered here.
    ///
    /// With `noise_rng` the probabilistic head returns the training-time
    /// reparameterized sample `φ̂ + ξ ⊙ Σ̂` (Eq. 9); without it, the UCB
    /// `φ̂ + Σ̂` (Eq. 10). The deterministic head returns logits (Eq. 7).
    fn score_graph(
        &self,
        tape: &mut Tape,
        ds: &Dataset,
        prep: &PreparedList,
        theta: Option<&Matrix>,
        noise_rng: Option<&mut StdRng>,
    ) -> Var {
        let store = &self.store;
        let reps = tape.constant(prep.features.clone());
        let h_r = self.relevance.forward(tape, store, reps);
        let fused = match &self.diversity {
            Some(div) => {
                let theta = match theta {
                    Some(value) => tape.constant(value.clone()),
                    None => div.preference_distribution(tape, store, ds, prep.user()),
                };
                let delta = DiversityEstimator::personalized_gain(tape, theta, &prep.novelty);
                tape.concat_cols(&[h_r, delta])
            }
            None => h_r,
        };
        let mean = self.head_mean.forward(tape, store, fused);
        let Some(head_std) = &self.head_std else {
            return mean;
        };
        let std = head_std.forward(tape, store, fused);
        match noise_rng {
            Some(rng) => {
                let xi = tape.constant(Matrix::rand_normal(prep.len(), 1, 0.0, 1.0, rng));
                let noise = tape.mul(xi, std);
                tape.add(mean, noise)
            }
            None => tape.add(mean, std),
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
        self.forget_thetas();
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
        self.forget_thetas();
        self.store.restore_from(params)
    }

    /// Inference-time scores: logits (det) or the UCB `φ̂ + Σ̂` (Eq. 10).
    /// `θ̂` comes from the per-user cache, so only the relevance
    /// estimator and the heads run per list.
    pub fn scores_prepared(&self, ds: &Dataset, prep: &PreparedList) -> Vec<f32> {
        let theta = self.cached_theta(ds, prep.user());
        let mut tape = Tape::new();
        let out = self.score_graph(&mut tape, ds, prep, theta, None);
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
        self.forget_thetas();
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
        // reparameterization noise fed through `score_graph`; the
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
                    let scores = self.score_graph(&mut tape, ds, prep, None, Some(&mut noise_rng));
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
        Some(self.score_graph(tape, ds, prep, None, None))
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

    fn every_variant() -> [RapidConfig; 5] {
        [
            RapidConfig::deterministic(),
            RapidConfig::probabilistic(),
            RapidConfig::without_diversity(),
            RapidConfig::mean_behavior(),
            RapidConfig::transformer_relevance(),
        ]
    }

    fn prepared(ds: &Dataset, samples: &[rapid_rerankers::TrainSample]) -> Vec<PreparedList> {
        samples
            .iter()
            .map(|s| PreparedList::from_sample(ds, s))
            .collect()
    }

    fn bits(scores: &[f32]) -> Vec<u32> {
        scores.iter().map(|x| x.to_bits()).collect()
    }

    /// A fresh model of `config` holding `model`'s parameters. (A model
    /// built from another seed also samples other behavior sequences.)
    fn fresh_copy(ds: &Dataset, config: &RapidConfig, model: &Rapid) -> Rapid {
        let mut copy = Rapid::new(ds, config.clone());
        copy.restore(&model.store).unwrap();
        copy
    }

    #[test]
    fn every_variant_builds_and_outputs_permutations() {
        let ds = tiny_dataset(21);
        let samples = click_samples(&ds, 8, 1);
        for config in every_variant() {
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
    fn inference_scores_equal_the_recorded_graph_bit_for_bit() {
        // Inference reads θ̂ from the per-user cache; `record_graph`
        // records the diversity estimator in full. Both must give the
        // same scores, on a cold and on a warm cache.
        let ds = tiny_dataset(27);
        let samples = click_samples(&ds, 12, 7);
        let lists = prepared(&ds, &samples);
        for config in every_variant() {
            let mut model = Rapid::new(
                &ds,
                RapidConfig {
                    epochs: 1,
                    ..config
                },
            );
            model.fit(&ds, &samples[..8]);
            for _ in 0..2 {
                for prep in &lists {
                    let mut tape = Tape::new();
                    let out = model.record_graph(&ds, prep, &mut tape).unwrap();
                    assert_eq!(
                        bits(&model.scores_prepared(&ds, prep)),
                        bits(tape.value(out).as_slice()),
                        "variant {} user {}",
                        model.name(),
                        prep.user()
                    );
                }
            }
        }
    }

    #[test]
    fn cached_theta_follows_every_parameter_write() {
        // Each write to the parameters (fit, restore, load) must drop the
        // θ̂ computed under the old ones: afterwards the model scores like
        // a fresh model holding the same parameters.
        let ds = tiny_dataset(28);
        let samples = click_samples(&ds, 16, 8);
        let lists = prepared(&ds, &samples);
        let config = RapidConfig {
            epochs: 1,
            ..RapidConfig::probabilistic()
        };
        let scores = |m: &Rapid| -> Vec<Vec<u32>> {
            lists
                .iter()
                .map(|p| bits(&m.scores_prepared(&ds, p)))
                .collect()
        };
        let mut model = Rapid::new(&ds, config.clone());
        let mut before = scores(&model);

        model.fit(&ds, &samples);
        let after = scores(&model);
        assert_ne!(after, before, "fit left the scores unchanged");
        assert_eq!(after, scores(&fresh_copy(&ds, &config, &model)), "fit");
        before = after;

        let other = Rapid::new(
            &ds,
            RapidConfig {
                seed: config.seed + 1,
                ..config.clone()
            },
        );
        model.restore(&other.store).unwrap();
        let after = scores(&model);
        assert_ne!(after, before, "restore left the scores unchanged");
        assert_eq!(after, scores(&fresh_copy(&ds, &config, &other)), "restore");
        before = after;

        let third = Rapid::new(
            &ds,
            RapidConfig {
                seed: config.seed + 2,
                ..config.clone()
            },
        );
        let mut bytes = Vec::new();
        third.save(&mut bytes).unwrap();
        model.load(&mut bytes.as_slice()).unwrap();
        let after = scores(&model);
        assert_ne!(after, before, "load left the scores unchanged");
        assert_eq!(after, scores(&fresh_copy(&ds, &config, &third)), "load");
    }

    #[test]
    fn concurrent_inference_over_shared_users_matches_sequential_calls() {
        // Lists that share users race to fill the same cache slots:
        // through `rerank_batch`, and on two threads released together.
        let ds = tiny_dataset(29);
        let samples = click_samples(&ds, 40, 9);
        let lists = prepared(&ds, &samples);
        let mut users: Vec<usize> = lists.iter().map(|p| p.user()).collect();
        users.sort_unstable();
        users.dedup();
        assert!(users.len() < lists.len(), "no two lists share a user");

        let config = RapidConfig {
            epochs: 1,
            ..RapidConfig::probabilistic()
        };
        let mut model = Rapid::new(&ds, config.clone());
        model.fit(&ds, &samples[..8]);
        let reference = fresh_copy(&ds, &config, &model);
        let sequential: Vec<Vec<usize>> = lists
            .iter()
            .map(|p| reference.rerank_prepared(&ds, p))
            .collect();

        let batched = fresh_copy(&ds, &config, &model);
        assert_eq!(batched.rerank_batch(&ds, &lists), sequential);

        let raced = fresh_copy(&ds, &config, &model);
        let start = std::sync::Barrier::new(2);
        let halves: Vec<Vec<Vec<usize>>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        lists
                            .iter()
                            .map(|p| raced.rerank_prepared(&ds, p))
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for half in halves {
            assert_eq!(half, sequential);
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
            let scores = model.score_graph(&mut tape, &ds, prep, None, Some(&mut noise_rng));
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

        // The recorded UCB graph ends in `add(mean, std)`.
        let mut tape = Tape::new();
        let out = model.score_graph(&mut tape, &ds, &prep, None, None);
        let rapid_autograd::op::Op::Add(mean, _) = tape.node_op(out.index()) else {
            panic!("the UCB output is not an add");
        };
        let mean_vals = tape.value(*mean).as_slice().to_vec();
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
