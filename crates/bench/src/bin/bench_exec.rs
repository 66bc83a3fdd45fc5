//! Execution-layer baseline: times the prepared-feature pipeline,
//! training on one shared `FeatureCache`, and `rerank_batch` scoring
//! across scoped worker threads for PRM, DESA, and RAPID-pro at quick
//! scale, and writes `BENCH_exec.json` (repo root, the committed gate
//! baseline) plus `telemetry.ndjson` and a Chrome trace under
//! `--out-dir` from the same `rapid-obs` registry. With
//! `RAPID_OBS_ADDR=host:port` set, the run also serves live `/healthz`,
//! `/metrics`, `/snapshot`, `/trace`, and `/slo` endpoints while it
//! executes (`rapid_serve::telemetry`). The binary asserts that batch
//! scoring re-ranks every list exactly as sequential
//! `rerank_prepared` calls do; the recorded `worker_count` says how
//! many threads the batch fanned over.
//!
//! Every stage is timed by a `rapid-obs` [`Span`]; the
//! JSON report derives each figure from the exact `Duration` returned
//! by `Span::finish()`, so the span totals in `telemetry.ndjson` agree
//! with `BENCH_exec.json` by construction (the CI gate allows 5% but
//! single-count spans match exactly).
//!
//! The run also prices crash safety: RAPID trains once more with
//! per-epoch atomic checkpoints, recording the write cost
//! (`ckpt_overhead_frac`, gated < 5% by `rapid-bench --check`) and the
//! cost of resuming from the finished checkpoint, and asserts that
//! neither checkpointing nor resuming perturbs the learned model.

use rapid_autograd::CheckpointConfig;
use rapid_bench::{ms, Cli};
use rapid_core::{Rapid, RapidConfig};
use rapid_data::Flavor;
use rapid_eval::{ExperimentConfig, Pipeline};
use rapid_exec::{worker_count, FeatureCache};
use rapid_obs::Span;
use rapid_rerankers::{Desa, DesaConfig, Prm, PrmConfig, ReRanker};
use serde::Serialize;

fn lineup(pipeline: &Pipeline, hidden: usize, epochs: usize, seed: u64) -> Vec<Box<dyn ReRanker>> {
    let ds = pipeline.dataset();
    vec![
        Box::new(Prm::new(
            ds,
            PrmConfig {
                hidden,
                epochs,
                seed,
                ..PrmConfig::default()
            },
        )),
        Box::new(Desa::new(
            ds,
            DesaConfig {
                hidden,
                epochs,
                seed,
                ..DesaConfig::default()
            },
        )),
        Box::new(Rapid::new(
            ds,
            RapidConfig {
                hidden,
                epochs,
                seed,
                ..RapidConfig::probabilistic()
            },
        )),
    ]
}

#[derive(Serialize)]
struct ModelRow {
    name: String,
    train_batches: usize,
    train_cached_ms: f64,
    infer_batch_ms: f64,
}

#[derive(Serialize)]
struct BenchReport {
    scale: String,
    seed: u64,
    worker_count: usize,
    test_lists: usize,
    train_lists: usize,
    epochs: usize,
    prepare_train_ms: f64,
    prepare_test_ms: f64,
    models: Vec<ModelRow>,
    total_after_ms: f64,
    /// Full `Pipeline::evaluate` of the three-model lineup, one model at
    /// a time (the pre-refactor harness shape).
    multi_model_seq_ms: f64,
    /// The same lineup through `Pipeline::evaluate_all`, which fans
    /// whole models across scoped worker threads. On a single core this
    /// matches the sequential number; with `min(worker_count, 3)` cores
    /// it divides by the fan-out.
    multi_model_par_ms: f64,
    multi_model_speedup: f64,
    /// Checkpoint cadence of the crash-safety bench (1 = every epoch,
    /// the worst case).
    ckpt_every_epochs: usize,
    /// Atomic checkpoint writes performed during the checkpointed train.
    ckpt_writes: u64,
    /// Total time inside those writes (serialize + fsync + rename),
    /// from the `ckpt.write_ms` histogram.
    ckpt_write_ms_total: f64,
    /// Wall-clock of the checkpointed RAPID training run.
    ckpt_train_ms: f64,
    /// `ckpt_write_ms_total / ckpt_train_ms` — gated < 5% by
    /// `rapid-bench --check`.
    ckpt_overhead_frac: f64,
    /// Cost of resuming from the finished checkpoint: load + CRC verify
    /// + param/Adam restore + RNG replay, with no epochs left to run.
    ckpt_resume_ms: f64,
}

fn main() {
    let cli = Cli::parse();
    println!("# Execution-layer bench (scale: {})\n", cli.scale_tag());

    // Route run artifacts (telemetry, Chrome trace, RAPID_DIAG training
    // traces) under --out-dir, and start the telemetry endpoints when
    // RAPID_OBS_ADDR is set so the run can be watched live.
    rapid_obs::set_out_dir(&cli.out_dir);
    if let Some(addr) = rapid_serve::telemetry::install_from_env() {
        println!("serving /healthz /metrics /snapshot /trace /slo on http://{addr}\n");
    }

    let mut config = ExperimentConfig::new(Flavor::MovieLens, cli.scale);
    config.seed = cli.seed;
    config.data.seed = cli.seed;
    let epochs = config.epochs;
    let hidden = config.hidden;
    let pipeline = Pipeline::prepare(config);
    let ds = pipeline.dataset();

    // One-time preparation cost of the shared cache (rebuilt here so it
    // can be timed; the pipeline already holds its own copy).
    let span = Span::enter("prepare_train");
    let train_cache = FeatureCache::from_samples(ds, pipeline.train_samples());
    let prepare_train_ms = ms(span.finish());
    let span = Span::enter("prepare_test");
    let test_cache = FeatureCache::from_inputs(ds, pipeline.test_inputs());
    let prepare_test_ms = ms(span.finish());

    let mut models = lineup(&pipeline, hidden, epochs, cli.seed);

    let mut rows = Vec::new();
    // The shared cache is built once for the whole lineup.
    let mut total_after = prepare_train_ms + prepare_test_ms;

    for model in &mut models {
        let name = model.name();

        let span = Span::enter(&format!("train_cached/{name}"));
        let report = model.fit_prepared(ds, &train_cache);
        let train_cached_ms = ms(span.finish());

        let span = Span::enter(&format!("infer_batch/{name}"));
        let batch_perms = model.rerank_batch(ds, &test_cache);
        let infer_batch_ms = ms(span.finish());

        // Untimed: the threaded batch must re-rank every list exactly
        // like a sequential call (`tests/exec_equivalence.rs` does not
        // cover DESA).
        let sequential: Vec<Vec<usize>> = test_cache
            .iter()
            .map(|prep| model.rerank_prepared(ds, prep))
            .collect();
        assert_eq!(
            sequential, batch_perms,
            "{name}: batch scoring must match sequential rerank_prepared calls"
        );

        println!(
            "{name:<12} train {train_cached_ms:>8.1} ms | infer {infer_batch_ms:>7.1} ms batch"
        );

        total_after += train_cached_ms + infer_batch_ms;
        rows.push(ModelRow {
            name: name.to_string(),
            train_batches: report.batches,
            train_cached_ms,
            infer_batch_ms,
        });
    }

    // Multi-model evaluation: the full train + score + metrics harness,
    // sequentially vs fanned across worker threads (fresh models each
    // time so both runs do identical work).
    let mut seq_models = lineup(&pipeline, hidden, epochs, cli.seed);
    let span = Span::enter("multi_model_seq");
    for model in &mut seq_models {
        std::hint::black_box(pipeline.evaluate(model.as_mut()));
    }
    let multi_model_seq_ms = ms(span.finish());

    let mut par_models = lineup(&pipeline, hidden, epochs, cli.seed);
    let span = Span::enter("multi_model_par");
    std::hint::black_box(pipeline.evaluate_all(&mut par_models));
    let multi_model_par_ms = ms(span.finish());

    // Checkpointing overhead and crash-resume cost. A fresh RAPID model
    // trains with per-epoch atomic checkpoints (the worst-case cadence);
    // the write cost comes from the `ckpt.write_ms` histogram the
    // Checkpointer feeds, so the overhead fraction is measured against
    // the very wall-clock it taxed. A second model then resumes from the
    // finished checkpoint — timing the pure load/verify/restore path —
    // and both must re-rank exactly like the uncheckpointed model
    // trained above (checkpointing must not perturb training).
    let ckpt_every_epochs = 1usize;
    let out_dir = rapid_obs::ensure_out_dir().expect("create --out-dir");
    let ckpt_cfg = CheckpointConfig::new(out_dir.join("bench_rapid.ckpt"), ckpt_every_epochs);
    let rapid_cfg = || RapidConfig {
        hidden,
        epochs,
        seed: cli.seed,
        ..RapidConfig::probabilistic()
    };
    let hist_sum =
        |s: &rapid_obs::Snapshot| s.histogram("ckpt.write_ms").map(|h| h.sum()).unwrap_or(0.0);
    let before = rapid_obs::global().snapshot();
    let mut ckpt_model = Rapid::new(ds, rapid_cfg());
    let span = Span::enter("train_checkpointed/RAPID-pro");
    ckpt_model.fit_resumable(ds, &train_cache, &ckpt_cfg);
    let ckpt_train_ms = ms(span.finish());
    let after = rapid_obs::global().snapshot();
    let ckpt_writes = after.counter("ckpt.writes") - before.counter("ckpt.writes");
    let ckpt_write_ms_total = hist_sum(&after) - hist_sum(&before);
    let ckpt_overhead_frac = ckpt_write_ms_total / ckpt_train_ms.max(1e-9);

    let mut resumed = Rapid::new(ds, rapid_cfg());
    let span = Span::enter("resume_restore/RAPID-pro");
    resumed.fit_resumable(ds, &train_cache, &ckpt_cfg);
    let ckpt_resume_ms = ms(span.finish());

    assert_eq!(models[2].name(), "RAPID-pro");
    let plain_perms = models[2].rerank_batch(ds, &test_cache);
    assert_eq!(
        plain_perms,
        ckpt_model.rerank_batch(ds, &test_cache),
        "checkpointed training must not perturb the learned model"
    );
    assert_eq!(
        plain_perms,
        resumed.rerank_batch(ds, &test_cache),
        "resuming a finished checkpoint must reproduce the model exactly"
    );

    let report = BenchReport {
        scale: cli.scale_tag().to_string(),
        seed: cli.seed,
        worker_count: worker_count(),
        test_lists: test_cache.len(),
        train_lists: train_cache.len(),
        epochs,
        prepare_train_ms,
        prepare_test_ms,
        models: rows,
        total_after_ms: total_after,
        multi_model_seq_ms,
        multi_model_par_ms,
        multi_model_speedup: multi_model_seq_ms / multi_model_par_ms.max(1e-9),
        ckpt_every_epochs,
        ckpt_writes,
        ckpt_write_ms_total,
        ckpt_train_ms,
        ckpt_overhead_frac,
        ckpt_resume_ms,
    };

    println!(
        "\ntotal {:.1} ms ({} workers)",
        report.total_after_ms, report.worker_count
    );
    println!(
        "multi-model eval: {:.1} ms sequential, {:.1} ms fanned, {:.2}x",
        report.multi_model_seq_ms, report.multi_model_par_ms, report.multi_model_speedup
    );
    println!(
        "checkpointing: {} writes, {:.1} ms of {:.1} ms train ({:.2}% overhead), resume {:.1} ms",
        report.ckpt_writes,
        report.ckpt_write_ms_total,
        report.ckpt_train_ms,
        report.ckpt_overhead_frac * 100.0,
        report.ckpt_resume_ms
    );

    let json = serde_json::to_string_pretty(&report).expect("bench report serialises");
    std::fs::write("BENCH_exec.json", json).expect("write BENCH_exec.json");
    println!("wrote BENCH_exec.json");

    // Dump everything the run recorded — the spans above, plus the
    // fit/rerank/exec instrumentation underneath them — as NDJSON, a
    // Perfetto-loadable Chrome trace, and a human summary, all under
    // --out-dir.
    let out_dir = rapid_obs::ensure_out_dir().expect("create --out-dir");
    let snapshot = rapid_obs::global().snapshot();
    let telemetry = out_dir.join("telemetry.ndjson");
    std::fs::write(&telemetry, snapshot.to_ndjson()).expect("write telemetry.ndjson");
    println!("wrote {}", telemetry.display());
    let trace = out_dir.join("trace_exec.json");
    std::fs::write(&trace, snapshot.to_chrome_trace()).expect("write trace_exec.json");
    println!("wrote {} (load in ui.perfetto.dev)\n", trace.display());
    print!("{}", snapshot.summary_table());
}
