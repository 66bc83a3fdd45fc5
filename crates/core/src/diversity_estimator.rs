//! The personalized diversity estimator (§III-C): per-topic behavior
//! encoding → inter-topic self-attention (Eq. 2) → preference
//! distribution `θ̂` (Eq. 3) → personalized diversity gain (Eq. 6).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rapid_autograd::{ParamStore, Tape, Var};
use rapid_data::{topic_sequences, Dataset, ItemId, UserId};
use rapid_diversity::marginal_diversity;
use rapid_nn::{self_attention, Activation, Linear, Lstm, Mlp};
use rapid_tensor::Matrix;

use crate::config::BehaviorEncoder;

/// Learns each user's preference distribution over topics from their
/// per-topic behavior sequences and converts an item's marginal
/// coverage gain into the *personalized* diversity gain.
pub struct DiversityEstimator {
    encoder: TopicEncoder,
    mlp_theta: Mlp,
    /// Per-user per-topic behavior sequences, sampled once at
    /// construction (topic assignment follows each item's coverage
    /// distribution, per the paper) so the model is deterministic.
    sequences: Vec<Vec<Vec<ItemId>>>,
    /// Per-user time-major behavior input planes, materialised once at
    /// construction so no forward pass re-gathers features from the
    /// dataset.
    planes: Vec<Vec<Matrix>>,
}

enum TopicEncoder {
    /// LSTM over each topic sequence (weights shared across topics — the
    /// per-topic inputs are batched as rows).
    Lstm(Lstm),
    /// RAPID-mean ablation: mean of item embeddings, linear projection.
    Mean(Linear),
}

impl DiversityEstimator {
    /// Registers parameters under `prefix` and samples the per-topic
    /// behavior sequences for every user.
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        ds: &Dataset,
        encoder: BehaviorEncoder,
        hidden: usize,
        behavior_len: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let m = ds.num_topics();
        let step_dim = ds.users[0].features.len() + ds.items[0].features.len();
        let enc = match encoder {
            BehaviorEncoder::Lstm => TopicEncoder::Lstm(Lstm::new(
                store,
                &format!("{prefix}.topic_lstm"),
                step_dim,
                hidden,
                rng,
            )),
            BehaviorEncoder::Mean => TopicEncoder::Mean(Linear::new(
                store,
                &format!("{prefix}.topic_mean"),
                step_dim,
                hidden,
                rng,
            )),
        };
        let mlp_theta = Mlp::new(
            store,
            &format!("{prefix}.mlp_theta"),
            &[m * hidden, 2 * hidden, m],
            Activation::Relu,
            rng,
        )
        .with_output_activation(Activation::Sigmoid);

        // Deterministic per-user topic assignment, seeded independently
        // of the weight init stream.
        let mut seq_rng = StdRng::seed_from_u64(rng.gen::<u64>() ^ 0x5eed_d1ce);
        let sequences: Vec<Vec<Vec<ItemId>>> = ds
            .users
            .iter()
            .map(|u| topic_sequences(&u.history, &ds.items, m, behavior_len, &mut seq_rng))
            .collect();
        let planes = ds
            .users
            .iter()
            .map(|u| Self::build_planes(ds, u.id, &sequences[u.id], behavior_len))
            .collect();

        Self {
            encoder: enc,
            mlp_theta,
            sequences,
            planes,
        }
    }

    /// The user's per-topic sequences (for inspection / case studies).
    pub fn sequences(&self, user: UserId) -> &[Vec<ItemId>] {
        &self.sequences[user]
    }

    /// Builds the time-major `(m, q_u + q_v)` input planes of a user's
    /// per-topic sequences, front-padded with zeros to `behavior_len`.
    /// Called once per user at construction; forwards read the cached
    /// planes.
    fn build_planes(
        ds: &Dataset,
        user: UserId,
        sequences: &[Vec<ItemId>],
        behavior_len: usize,
    ) -> Vec<Matrix> {
        let m = ds.num_topics();
        let step_dim = ds.users[0].features.len() + ds.items[0].features.len();
        let xu = &ds.users[user].features;
        let d_len = behavior_len;
        let mut planes = Vec::with_capacity(d_len);
        for t in 0..d_len {
            let mut plane = Matrix::zeros(m, step_dim);
            for (topic, seq) in sequences.iter().enumerate() {
                let take = seq.len().min(d_len);
                let offset = d_len - take;
                if t >= offset {
                    let item = seq[seq.len() - take + (t - offset)];
                    let row = plane.row_mut(topic);
                    row[..xu.len()].copy_from_slice(xu);
                    row[xu.len()..].copy_from_slice(&ds.items[item].features);
                }
            }
            planes.push(plane);
        }
        planes
    }

    /// Computes the preference distribution `θ̂ ∈ (0,1)^m` (Eq. 2–3) as
    /// a `(1, m)` node.
    pub fn preference_distribution(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        _ds: &Dataset,
        user: UserId,
    ) -> Var {
        let planes = &self.planes[user];
        let topic_reps = match &self.encoder {
            TopicEncoder::Lstm(lstm) => {
                let steps: Vec<Var> = planes.iter().map(|p| tape.constant(p.clone())).collect();
                let states = lstm.forward(tape, store, &steps);
                *states.last().expect("behavior_len > 0") // (m, q_h)
            }
            TopicEncoder::Mean(proj) => {
                // Mean over the D steps, then projected.
                let d_len = planes.len() as f32;
                let mut acc = planes[0].clone();
                for p in &planes[1..] {
                    acc.add_assign(p);
                }
                let mean = tape.constant(acc.scale(1.0 / d_len));
                proj.forward(tape, store, mean) // (m, q_h)
            }
        };
        // Inter-topic interactions: A = softmax(V Vᵀ / √q_h) V (Eq. 2).
        let attended = self_attention(tape, topic_reps);
        // Flatten [a_1, …, a_m] into one row for MLP_θ (Eq. 3).
        let m = tape.value(attended).rows();
        let rows: Vec<Var> = (0..m)
            .map(|j| tape.slice_rows(attended, j, j + 1))
            .collect();
        let flat = tape.concat_cols(&rows); // (1, m·q_h)
        self.mlp_theta.forward(tape, store, flat) // (1, m)
    }

    /// The constant `(L, m)` marginal-diversity matrix `d_R` (Eq. 5).
    pub fn marginal_diversity_matrix(ds: &Dataset, items: &[ItemId]) -> Matrix {
        let covs: Vec<&[f32]> = items
            .iter()
            .map(|&v| ds.items[v].coverage.as_slice())
            .collect();
        let m = ds.num_topics();
        let mut data = Vec::with_capacity(items.len() * m);
        for i in 0..items.len() {
            data.extend(marginal_diversity(&covs, i));
        }
        Matrix::from_vec(items.len(), m, data)
    }

    /// The personalized diversity gain `Δ_R = θ̂ ⊙ d_R` (Eq. 6) as an
    /// `(L, m)` node, from a `(1, m)` `θ̂` node. `novelty` is the
    /// precomputed `(L, m)` marginal diversity matrix `d_R` (a
    /// `PreparedList` carries it; legacy callers build it with
    /// [`Self::marginal_diversity_matrix`]).
    pub fn personalized_gain(tape: &mut Tape, theta: Var, novelty: &Matrix) -> Var {
        let d_r = tape.constant(novelty.clone());
        tape.mul_row_broadcast(d_r, theta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_data::{generate, DataConfig, Flavor};

    fn tiny() -> Dataset {
        let mut c = DataConfig::new(Flavor::Taobao);
        c.num_users = 12;
        c.num_items = 80;
        c.ranker_train_interactions = 50;
        c.rerank_train_requests = 3;
        c.test_requests = 2;
        generate(&c)
    }

    fn build(ds: &Dataset, encoder: BehaviorEncoder) -> (ParamStore, DiversityEstimator) {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let est = DiversityEstimator::new(&mut store, "div", ds, encoder, 16, 5, &mut rng);
        (store, est)
    }

    #[test]
    fn theta_has_topic_width_and_unit_range() {
        let ds = tiny();
        for enc in [BehaviorEncoder::Lstm, BehaviorEncoder::Mean] {
            let (store, est) = build(&ds, enc);
            let mut tape = Tape::new();
            let theta = est.preference_distribution(&mut tape, &store, &ds, 3);
            let v = tape.value(theta);
            assert_eq!(v.shape(), (1, ds.num_topics()));
            assert!(v.as_slice().iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn gain_is_bounded_by_marginal_diversity() {
        // θ̂ ∈ (0,1), so the personalized gain can never exceed the raw
        // marginal diversity.
        let ds = tiny();
        let (store, est) = build(&ds, BehaviorEncoder::Lstm);
        let items = &ds.test[0].candidates;
        let raw = DiversityEstimator::marginal_diversity_matrix(&ds, items);
        let mut tape = Tape::new();
        let theta = est.preference_distribution(&mut tape, &store, &ds, 0);
        let gain = DiversityEstimator::personalized_gain(&mut tape, theta, &raw);
        let g = tape.value(gain);
        assert_eq!(g.shape(), raw.shape());
        for (gv, rv) in g.as_slice().iter().zip(raw.as_slice()) {
            assert!(*gv <= rv + 1e-6);
            assert!(*gv >= -1e-6);
        }
    }

    #[test]
    fn sequences_are_deterministic_per_construction_seed() {
        let ds = tiny();
        let (_, a) = build(&ds, BehaviorEncoder::Lstm);
        let (_, b) = build(&ds, BehaviorEncoder::Lstm);
        for u in 0..ds.users.len() {
            assert_eq!(a.sequences(u), b.sequences(u));
        }
    }

    #[test]
    fn sequences_respect_behavior_len() {
        let ds = tiny();
        let (_, est) = build(&ds, BehaviorEncoder::Lstm);
        for u in 0..ds.users.len() {
            for seq in est.sequences(u) {
                assert!(seq.len() <= 5);
            }
        }
    }

    #[test]
    fn duplicate_items_in_list_get_zero_marginal_diversity() {
        let ds = tiny();
        let items = vec![ds.test[0].candidates[0]; 3];
        let d = DiversityEstimator::marginal_diversity_matrix(&ds, &items);
        assert!(d.as_slice().iter().all(|&v| v.abs() < 1e-5));
    }
}
