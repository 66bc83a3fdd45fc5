//! The repository benchmark: three workloads over the RAPID stack, run
//! from a seed, with output checks and a traced per-layer pass. See
//! `README.md` in this directory.

pub mod layers;
pub mod loadgen;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod train;

use report::Metrics;
use stats::Tally;

/// The workloads, by the names later changes refer to.
pub const WORKLOADS: &[&str] = &["train_rapid", "serve_rerank", "serve_ingest_mix"];

/// Every per-layer metric of the traced run, with its unit. Each
/// workload reports all of them; a layer the workload does not exercise
/// reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.generate_s", "s"),
    ("rankers.fit_s", "s"),
    ("exec.prepare_ms", "ms"),
    ("rerankers.step_ms", "ms"),
    ("rerankers.step_self_ms", "ms"),
    ("core.forward_loss_us", "us"),
    ("autograd.backward_us", "us"),
    ("autograd.optim_us", "us"),
    ("autograd.tape_nodes_per_list", "count"),
    ("autograd.value_bytes_per_list", "B"),
    ("autograd.grad_bytes_per_list", "B"),
    ("core.relevance_fwd_us", "us"),
    ("core.diversity_fwd_us", "us"),
    ("nn.lstm_fwd_us", "us"),
    ("nn.bilstm_fwd_us", "us"),
    ("nn.attention_fwd_us", "us"),
    ("nn.mlp_fwd_us", "us"),
    ("tensor.matmul_ns", "ns"),
    ("tensor.matmul_at_ns", "ns"),
    ("tensor.matmul_bt_ns", "ns"),
    ("tensor.matmul_flops_per_list", "flop"),
    ("tensor.matmul_bytes_per_list", "B"),
    ("exec.rerank_batch_us_per_list", "us"),
    ("exec.degraded_chunks", "count"),
    ("serve.model.rank_ms.p50", "ms"),
    ("serve.model.rank_ms.p99", "ms"),
    ("serve.model.prepare_ms.p50", "ms"),
    ("serve.model.prepare_ms.p99", "ms"),
    ("serve.model.rerank_ms.p50", "ms"),
    ("serve.model.rerank_ms.p99", "ms"),
    ("serve.transport_ms.p50", "ms"),
    ("serve.transport_ms.p99", "ms"),
    ("serve.api.parse_rerank_us", "us"),
    ("serve.api.parse_events_us", "us"),
    ("serve.api.encode_us", "us"),
    ("serve.state.get_us", "us"),
    ("serve.state.apply_event_us", "us"),
    ("serve.state.users", "count"),
    ("serve.admission.shed", "count"),
    ("serve.degrade.blend", "count"),
    ("serve.degrade.passthrough", "count"),
    ("serve.model.full_tier_frac", "ratio"),
    ("bench.loadgen.late_ms.p50", "ms"),
    ("bench.loadgen.late_ms.p99", "ms"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// What a workload run produced.
pub struct Outcome {
    /// Operations attempted and failed, checks included.
    pub tally: Tally,
    /// End-to-end metrics measured by the workload itself.
    pub metrics: Metrics,
    /// Per-layer metrics (traced run only).
    pub layers: Metrics,
    /// Human-readable report lines.
    pub notes: Vec<String>,
}
