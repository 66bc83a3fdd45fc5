//! Per-layer probes for the traced run. Each drives one layer through
//! its public functions at the shapes RAPID records, with a span around
//! every call; nothing inside the program is instrumented.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rapid_autograd::op::Op;
use rapid_autograd::optim::{Adam, Optimizer};
use rapid_autograd::{ParamStore, Tape};
use rapid_core::{
    BehaviorEncoder, DiversityEstimator, Rapid, RapidConfig, RelevanceEncoder, RelevanceEstimator,
};
use rapid_data::Dataset;
use rapid_nn::{self_attention, Activation, BiLstm, Lstm, Mlp};
use rapid_rerankers::{PreparedList, ReRanker};
use rapid_tensor::Matrix;

use crate::report::Metrics;
use crate::stats::median;
use crate::trace;

/// Exact per-list counts of one recorded training batch. They depend
/// only on the recorded graph, so they repeat exactly for fixed inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphCounts {
    /// Tape nodes recorded per list (forward + loss).
    pub tape_nodes_per_list: f64,
    /// Bytes of node values held per list after the forward.
    pub value_bytes_per_list: f64,
    /// Bytes of gradient buffers held per list after backward.
    pub grad_bytes_per_list: f64,
    /// Matmul flops per list: `2mkn` per forward product plus the same
    /// per operand gradient backward computed, from the recorded shapes.
    pub matmul_flops_per_list: f64,
    /// Operand and result bytes of those products per list.
    pub matmul_bytes_per_list: f64,
}

/// Matmul shapes `(m, k, n)` one recorded batch used, by kernel.
#[derive(Debug, Clone, Default)]
pub struct MatmulShapes {
    /// Forward `a·b` products.
    pub fwd: Vec<(usize, usize, usize)>,
    /// Backward `dC·bᵀ` products (`matmul_bt`).
    pub bt: Vec<(usize, usize, usize)>,
    /// Backward `aᵀ·dC` products (`matmul_at`).
    pub at: Vec<(usize, usize, usize)>,
}

/// A copy of `rapid`'s parameters that gradients and Adam can write to
/// without touching the model. The model records every batch from its
/// own, unchanged parameters, so the probe's graphs do not drift.
fn param_copy(rapid: &Rapid) -> ParamStore {
    let mut bytes = Vec::new();
    rapid
        .save(&mut bytes)
        .expect("writing to a Vec cannot fail");
    ParamStore::load(&mut bytes.as_slice()).expect("a store just saved loads back")
}

/// The gradient-norm clip RAPID's training step applies to every batch.
const CLIP_NORM: f32 = 5.0;

/// Records, differentiates and applies `batches` optimizer batches of
/// `batch` lists each (cycling over `lists`) through the public training
/// API, as RAPID's training step does: `record_loss_graph` per list,
/// `Tape::backward`, `ParamStore::clip_grad_norm`, `Adam::step`.
/// Spans: `rerankers.step` ⊃ {`core.forward_loss`, `autograd.backward`,
/// `autograd.clip`, `autograd.optim`}. Returns the exact graph counts
/// and the matmul shapes of the first batch.
pub fn train_steps(
    ds: &Dataset,
    rapid: &Rapid,
    lists: &[PreparedList],
    batches: usize,
    batch: usize,
) -> (GraphCounts, MatmulShapes) {
    assert!(!lists.is_empty() && batch > 0 && batches > 0);
    let mut store = param_copy(rapid);
    let mut adam = Adam::new(rapid.config().lr);
    let mut tape = Tape::new();
    let mut totals = [0.0f64; 5];
    let mut shapes = MatmulShapes::default();
    let mut listed = 0usize;
    for b in 0..batches {
        let _step = trace::span("rerankers.step");
        tape.clear();
        let mut losses = Vec::with_capacity(batch);
        for j in 0..batch {
            let prep = &lists[(b * batch + j) % lists.len()];
            let _s = trace::span("core.forward_loss");
            losses.push(
                rapid
                    .record_loss_graph(ds, prep, &mut tape)
                    .expect("RAPID records a loss graph"),
            );
        }
        let stacked = tape.concat_cols(&losses);
        let total = tape.mean_all(stacked);
        totals[0] += tape.len() as f64;
        totals[1] += tape.value_bytes() as f64;
        {
            let _s = trace::span("autograd.backward");
            tape.backward(total, &mut store);
        }
        totals[2] += tape.grad_bytes() as f64;
        let (flops, bytes) = matmul_work(&tape, if b == 0 { Some(&mut shapes) } else { None });
        totals[3] += flops;
        totals[4] += bytes;
        {
            let _s = trace::span("autograd.clip");
            store.clip_grad_norm(CLIP_NORM);
        }
        {
            let _s = trace::span("autograd.optim");
            adam.step_and_zero(&mut store);
        }
        listed += batch;
    }
    let per = |x: f64| x / listed as f64;
    (
        GraphCounts {
            tape_nodes_per_list: per(totals[0]),
            value_bytes_per_list: per(totals[1]),
            grad_bytes_per_list: per(totals[2]),
            matmul_flops_per_list: per(totals[3]),
            matmul_bytes_per_list: per(totals[4]),
        },
        shapes,
    )
}

/// Flops and bytes of every matmul on a differentiated tape: the forward
/// product, plus each operand gradient backward allocated for a product
/// inside the loss cone.
fn matmul_work(tape: &Tape, mut shapes: Option<&mut MatmulShapes>) -> (f64, f64) {
    let mut flops = 0.0;
    let mut bytes = 0.0;
    let mut add = |m: usize, k: usize, n: usize| {
        flops += 2.0 * (m * k * n) as f64;
        bytes += 4.0 * (m * k + k * n + m * n) as f64;
    };
    for i in 0..tape.len() {
        let Op::MatMul(a, b) = tape.node_op(i) else {
            continue;
        };
        let (m, k) = tape.node_shape(a.index());
        let (_, n) = tape.node_shape(b.index());
        add(m, k, n);
        if let Some(s) = shapes.as_deref_mut() {
            s.fwd.push((m, k, n));
        }
        if tape.node_grad_shape(i).is_none() {
            continue;
        }
        if tape.node_grad_shape(a.index()).is_some() {
            // dA = dC·bᵀ: (m, n)·(k, n)ᵀ
            add(m, n, k);
            if let Some(s) = shapes.as_deref_mut() {
                s.bt.push((m, n, k));
            }
        }
        if tape.node_grad_shape(b.index()).is_some() {
            // dB = aᵀ·dC: (m, k)ᵀ·(m, n)
            add(k, m, n);
            if let Some(s) = shapes.as_deref_mut() {
                s.at.push((k, m, n));
            }
        }
    }
    (flops, bytes)
}

/// Times the three matmul kernels over the recorded shape mix: per call
/// ns, the median over `reps` passes through every recorded product.
pub fn time_matmuls(shapes: &MatmulShapes, reps: usize, seed: u64, m: &mut Metrics) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rand = |r: usize, c: usize| Matrix::rand_uniform(r, c, -1.0, 1.0, &mut rng);
    // (lhs, rhs) operand pairs per kernel, shaped for its call.
    let fwd: Vec<_> = shapes
        .fwd
        .iter()
        .map(|&(mm, k, n)| (rand(mm, k), rand(k, n)))
        .collect();
    let bt: Vec<_> = shapes
        .bt
        .iter()
        .map(|&(mm, k, n)| (rand(mm, k), rand(n, k)))
        .collect();
    let at: Vec<_> = shapes
        .at
        .iter()
        .map(|&(mm, k, n)| (rand(k, mm), rand(k, n)))
        .collect();
    let per_call =
        |pairs: &[(Matrix, Matrix)], name: &'static str, f: fn(&Matrix, &Matrix) -> Matrix| {
            if pairs.is_empty() {
                return 0.0;
            }
            let samples: Vec<f64> = (0..reps)
                .map(|_| {
                    let _s = trace::span(name);
                    let t = Instant::now();
                    for (a, b) in pairs {
                        std::hint::black_box(f(std::hint::black_box(a), std::hint::black_box(b)));
                    }
                    t.elapsed().as_nanos() as f64 / pairs.len() as f64
                })
                .collect();
            median(&samples)
        };
    m.set(
        "tensor.matmul_ns",
        per_call(&fwd, "tensor.matmul", Matrix::matmul),
        "ns",
    );
    m.set(
        "tensor.matmul_bt_ns",
        per_call(&bt, "tensor.matmul_bt", Matrix::matmul_bt),
        "ns",
    );
    m.set(
        "tensor.matmul_at_ns",
        per_call(&at, "tensor.matmul_at", Matrix::matmul_at),
        "ns",
    );
}

/// Times RAPID's forward building blocks on `lists`, each built fresh at
/// the model's shapes: the two estimators (`core.*`) and the nn layers
/// inside them (`nn.*`). Medians of per-call µs over `calls` calls each.
pub fn forward_layers(
    ds: &Dataset,
    cfg: &RapidConfig,
    lists: &[PreparedList],
    calls: usize,
    m: &mut Metrics,
) {
    assert!(!lists.is_empty());
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x1a7e);
    let mut store = ParamStore::new();
    let in_dim = RelevanceEstimator::input_dim(ds);
    let topics = ds.num_topics();
    let step_dim = ds.users[0].features.len() + ds.items[0].features.len();
    let h = cfg.hidden;
    let rel = RelevanceEstimator::new(
        &mut store,
        "probe.rel",
        RelevanceEncoder::BiLstm,
        in_dim,
        h,
        cfg.max_len,
        &mut rng,
    );
    let div = DiversityEstimator::new(
        &mut store,
        "probe.div",
        ds,
        BehaviorEncoder::Lstm,
        h,
        cfg.behavior_len,
        &mut rng,
    );
    let bilstm = BiLstm::new(&mut store, "probe.bilstm", in_dim, h, &mut rng);
    let lstm = Lstm::new(&mut store, "probe.lstm", step_dim, h, &mut rng);
    let head_in = 2 * h + topics;
    let mlp = Mlp::new(
        &mut store,
        "probe.mlp",
        &[head_in, h, 1],
        Activation::Relu,
        &mut rng,
    );
    let planes: Vec<Matrix> = (0..cfg.behavior_len)
        .map(|_| Matrix::rand_uniform(topics, step_dim, -1.0, 1.0, &mut rng))
        .collect();
    let topic_reps = Matrix::rand_uniform(topics, h, -1.0, 1.0, &mut rng);

    let mut tape = Tape::new();
    let mut timed = |name: &'static str, f: &mut dyn FnMut(&mut Tape, &PreparedList)| -> f64 {
        let samples: Vec<f64> = (0..calls)
            .map(|i| {
                let prep = &lists[i % lists.len()];
                tape.clear();
                let _s = trace::span(name);
                let t = Instant::now();
                f(&mut tape, prep);
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        median(&samples)
    };
    let v = timed("core.relevance_fwd", &mut |tape, prep| {
        let reps = tape.constant(prep.features.clone());
        std::hint::black_box(rel.forward(tape, &store, reps));
    });
    m.set("core.relevance_fwd_us", v, "us");
    let v = timed("core.diversity_fwd", &mut |tape, prep| {
        std::hint::black_box(div.preference_distribution(tape, &store, ds, prep.user()));
    });
    m.set("core.diversity_fwd_us", v, "us");
    let v = timed("nn.bilstm_fwd", &mut |tape, prep| {
        let reps = tape.constant(prep.features.clone());
        let steps: Vec<_> = (0..prep.len())
            .map(|i| tape.slice_rows(reps, i, i + 1))
            .collect();
        std::hint::black_box(bilstm.forward(tape, &store, &steps));
    });
    m.set("nn.bilstm_fwd_us", v, "us");
    let v = timed("nn.lstm_fwd", &mut |tape, _| {
        let steps: Vec<_> = planes.iter().map(|p| tape.constant(p.clone())).collect();
        std::hint::black_box(lstm.forward(tape, &store, &steps));
    });
    m.set("nn.lstm_fwd_us", v, "us");
    let v = timed("nn.attention_fwd", &mut |tape, _| {
        let x = tape.constant(topic_reps.clone());
        std::hint::black_box(self_attention(tape, x));
    });
    m.set("nn.attention_fwd_us", v, "us");
    let v = timed("nn.mlp_fwd", &mut |tape, prep| {
        let x = tape.constant(Matrix::zeros(prep.len(), head_in));
        std::hint::black_box(mlp.forward(tape, &store, x));
    });
    m.set("nn.mlp_fwd_us", v, "us");
}

/// Sets the counts of [`train_steps`] as metrics.
pub fn set_counts(c: &GraphCounts, m: &mut Metrics) {
    m.set(
        "autograd.tape_nodes_per_list",
        c.tape_nodes_per_list,
        "count",
    );
    m.set("autograd.value_bytes_per_list", c.value_bytes_per_list, "B");
    m.set("autograd.grad_bytes_per_list", c.grad_bytes_per_list, "B");
    m.set(
        "tensor.matmul_flops_per_list",
        c.matmul_flops_per_list,
        "flop",
    );
    m.set("tensor.matmul_bytes_per_list", c.matmul_bytes_per_list, "B");
}
