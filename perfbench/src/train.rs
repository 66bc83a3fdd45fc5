//! `train_rapid`: RAPID-pro training and inference on a MovieLens-flavor
//! world at quick scale. Only the math path runs here (tensor, autograd,
//! nn, core, rerankers, exec); no serving code.

use std::time::{Duration, Instant};

use rapid_click::Dcm;
use rapid_core::{Rapid, RapidConfig};
use rapid_data::{generate, Flavor};
use rapid_eval::{ExperimentConfig, Pipeline, Scale};
use rapid_exec::FeatureCache;
use rapid_rankers::{Din, DinConfig};
use rapid_rerankers::{is_permutation, ReRanker};

use crate::layers;
use crate::report::{describe_pct, Metrics};
use crate::stats::{blocked, median, Tally};
use crate::trace;
use crate::Outcome;

/// Training epochs of each measured fit.
const EPOCHS: usize = 2;
/// Threads that fit or infer at once: one per core of the 2-core
/// machines the figures are taken on.
const LANES: usize = 2;
/// Measurement cycles at least, however short `--seconds` is; each
/// gives one fit round, one inference block and one batch pass.
const MIN_CYCLES: usize = 3;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Single-list calls per inference block. Latency is each block's
/// percentile, the median over blocks; the p99 pooled over at least
/// `MIN_CYCLES` blocks has ten beyond.
const BLOCK_CALLS: usize = 1100;

/// The world and initial ranker at the experiment's defaults. Every list
/// has the same shape on any world, so the work per list does not depend
/// on the world's seed, while the test set's click@10 does; a fixed
/// world keeps `quality_click10` a tight guard.
fn experiment() -> ExperimentConfig {
    ExperimentConfig::new(Flavor::MovieLens, Scale::Quick)
}

/// RAPID-pro; the workload seed drives its initialisation, epoch
/// shuffles and reparameterisation noise.
fn rapid_config(config: &ExperimentConfig, seed: u64) -> RapidConfig {
    RapidConfig {
        hidden: config.hidden,
        epochs: EPOCHS,
        seed,
        ..RapidConfig::probabilistic()
    }
}

/// Runs the workload for about `seconds` of measurement.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut pipeline = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let p = Pipeline::prepare(experiment());
        setups.push(t.elapsed().as_secs_f64());
        pipeline = Some(p);
    }
    let pipeline = pipeline.expect("at least one set-up");
    let ds = pipeline.dataset();
    let cache = pipeline.cache();
    let config = pipeline.config().clone();
    let rc = rapid_config(&config, seed);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut tally = Tally::default();
    let mut notes = Vec::new();

    // Cycles until the deadline, each of three parts, so every figure's
    // samples spread over the whole run and a burst of host noise moves
    // a few samples rather than a median:
    // 1. fixed-epoch fits from the same seed, one per core at once (a
    //    single thread's speed on this kind of host depends on which core
    //    it lands on and what shares that core, so every round uses all
    //    of them); one throughput sample per round, and every fit must
    //    learn the same model;
    // 2. a block of serving-shaped inference, one list per
    //    `rerank_batch` call on every core at once, latencies pooled in
    //    completion order;
    // 3. one whole-test-set pass through the parallel batch path.
    let mut fit_rates = Vec::new();
    let mut fit_ms_per_batch = Vec::new();
    let mut models: Vec<Rapid> = Vec::new();
    let mut list_ms: Vec<f64> = Vec::new();
    let mut single: Vec<Vec<usize>> = vec![Vec::new(); cache.test.len()];
    let mut disagree = 0u64;
    let mut pass_rates = Vec::new();
    let mut perms = Vec::new();
    let per_lane = BLOCK_CALLS.div_ceil(LANES);
    while fit_rates.len() < MIN_CYCLES || Instant::now() < deadline {
        let t = Instant::now();
        let fitted: Vec<(Rapid, usize, f64)> = lanes(|_| {
            let mut model = Rapid::new(ds, rc.clone());
            let t = Instant::now();
            let report = {
                let _s = trace::span("rerankers.fit_prepared");
                model.fit_prepared(ds, &cache.train)
            };
            (model, report.batches.max(1), t.elapsed().as_secs_f64())
        });
        fit_rates.push((LANES * EPOCHS * cache.train.len()) as f64 / t.elapsed().as_secs_f64());
        fit_ms_per_batch.extend(fitted.iter().map(|&(_, b, secs)| secs * 1e3 / b as f64));
        let round: Vec<Rapid> = fitted.into_iter().map(|f| f.0).collect();
        if models.is_empty() {
            models = round;
        } else {
            // Compare this round's fits with the first round's on one
            // test list each.
            let prep = std::slice::from_ref(&cache.test[fit_rates.len() % cache.test.len()]);
            tally.attempted += 1;
            let want = models[0].rerank_batch(ds, prep);
            if round.iter().any(|m| m.rerank_batch(ds, prep) != want) {
                tally.check_failed += 1;
                notes.push("fits from one seed rank differently across rounds".to_string());
            }
        }

        let block = fit_rates.len() - 1;
        let lane_runs = lanes(|lane| {
            let model = &models[lane];
            let mut timed = Vec::with_capacity(per_lane);
            let mut last = vec![Vec::new(); cache.test.len()];
            let mut bad = 0u64;
            for c in 0..per_lane {
                let i = (block * per_lane + c + lane * cache.test.len() / LANES) % cache.test.len();
                let prep = &cache.test[i];
                let t = Instant::now();
                let perm = {
                    let _s = trace::span("exec.rerank_batch.list");
                    model.rerank_batch(ds, std::slice::from_ref(prep))
                };
                timed.push((Instant::now(), t.elapsed().as_secs_f64() * 1e3));
                match perm.into_iter().next() {
                    Some(p) if is_permutation(&p, prep.len()) => last[i] = p,
                    _ => bad += 1,
                }
            }
            (timed, last, bad)
        });
        let mut timed: Vec<(Instant, f64)> = Vec::new();
        for (t, _, bad) in &lane_runs {
            tally.attempted += t.len() as u64;
            tally.check_failed += bad;
            timed.extend(t);
        }
        timed.sort_by_key(|&(end, _)| end);
        list_ms.extend(timed.iter().map(|&(_, ms)| ms));
        // Every answer to a list, on either lane and in any cycle, must
        // equal the first one; the batch check compares against those.
        for (_, last, _) in &lane_runs {
            for (i, p) in last.iter().enumerate() {
                if p.is_empty() {
                    continue;
                }
                tally.attempted += 1;
                if single[i].is_empty() {
                    single[i] = p.clone();
                } else if &single[i] != p {
                    tally.check_failed += 1;
                    disagree += 1;
                }
            }
        }

        let t = Instant::now();
        perms = {
            let _s = trace::span("exec.rerank_batch.pass");
            models[0].rerank_batch(ds, &cache.test)
        };
        pass_rates.push(cache.test.len() as f64 / t.elapsed().as_secs_f64());
        tally.attempted += 1;
        let ok = perms.len() == cache.test.len()
            && perms
                .iter()
                .zip(&cache.test)
                .zip(&single)
                .all(|((p, l), s)| is_permutation(p, l.len()) && (s.is_empty() || p == s));
        if !ok {
            tally.check_failed += 1;
            notes.push("batch inference disagrees with single-list inference".to_string());
        }
    }
    if disagree > 0 {
        notes.push(format!(
            "{disagree} single-list answers differ between models fitted from one seed"
        ));
    }
    let model = &models[0];

    // Table II headline: mean DCM expected click@10 on the test set.
    let dcm = Dcm::standard(config.data.list_len, config.lambda);
    let clicks: Vec<f64> = pipeline
        .test_inputs()
        .iter()
        .zip(&perms)
        .map(|(input, perm)| {
            let items: Vec<usize> = perm.iter().map(|&i| input.items[i]).collect();
            f64::from(dcm.expected_clicks(&dcm.attractions(ds, input.user, &items), 10))
        })
        .collect();
    let quality = clicks.iter().sum::<f64>() / clicks.len().max(1) as f64;

    let mut m = Metrics::default();
    notes.push(format!(
        "train_lists_per_s = {:.2} lists/s (median of {} rounds of {LANES} concurrent fits x {EPOCHS} epochs x {} lists)",
        median(&fit_rates),
        fit_rates.len(),
        cache.train.len()
    ));
    notes.push(format!(
        "infer_lists_per_s = {:.2} lists/s (median of {} passes x {} lists, {} workers)",
        median(&pass_rates),
        pass_rates.len(),
        cache.test.len(),
        rapid_exec::worker_count()
    ));
    notes.push(describe_pct("list_latency_p50_ms", &list_ms, 0.5));
    notes.push(describe_pct("list_latency_p99_ms", &list_ms, 0.99));
    notes.push(format!(
        "quality_click10 = {quality:.4} clicks (n={} test lists)",
        clicks.len()
    ));
    m.set("setup_s", median(&setups), "s");
    m.set("throughput_per_s", median(&fit_rates), "1/s");
    m.set(
        "latency_p50_ms",
        blocked(&list_ms, fit_rates.len(), 0.5).unwrap_or(f64::NAN),
        "ms",
    );
    m.set(
        "latency_p90_ms",
        blocked(&list_ms, fit_rates.len(), 0.9).unwrap_or(f64::NAN),
        "ms",
    );
    m.set("quality_click10", quality, "clicks");

    notes.push(format!(
        "failed_frac = {} ({} of {})",
        tally.failed_frac(),
        tally.failed(),
        tally.attempted
    ));

    let mut layer = Metrics::default();
    if traced {
        layer_probes(&pipeline, model, &rc, &fit_ms_per_batch, &mut layer);
    }
    Outcome {
        tally,
        metrics: m,
        layers: layer,
        notes,
    }
}

/// Runs `f(lane)` on `LANES` threads at once and returns the results in
/// lane order.
fn lanes<T: Send>(f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = (0..LANES).map(|lane| s.spawn(move || f(lane))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("benchmark lane panicked"))
            .collect()
    })
}

/// The traced run's per-layer probes on this workload's world and model.
fn layer_probes(
    pipeline: &Pipeline,
    model: &Rapid,
    rc: &RapidConfig,
    fit_ms_per_batch: &[f64],
    m: &mut Metrics,
) {
    let ds = pipeline.dataset();
    let config = pipeline.config();
    let cache = pipeline.cache();

    // Set-up layers, as `Pipeline::prepare` runs them.
    let t = Instant::now();
    let generated = {
        let _s = trace::span("data.generate");
        generate(&config.data)
    };
    m.set("data.generate_s", t.elapsed().as_secs_f64(), "s");
    let mut ranker_ds = generated;
    ranker_ds
        .ranker_train
        .truncate(ranker_ds.ranker_train.len() / 3);
    let t = Instant::now();
    {
        let _s = trace::span("rankers.fit");
        std::hint::black_box(Din::fit(
            &ranker_ds,
            &DinConfig {
                epochs: 1,
                hidden: 16,
                seed: config.seed,
                ..DinConfig::default()
            },
        ));
    }
    m.set("rankers.fit_s", t.elapsed().as_secs_f64(), "s");
    let t = Instant::now();
    {
        let _s = trace::span("exec.prepare");
        std::hint::black_box(FeatureCache::from_samples(ds, pipeline.train_samples()));
        std::hint::black_box(FeatureCache::from_inputs(ds, pipeline.test_inputs()));
    }
    m.set("exec.prepare_ms", t.elapsed().as_secs_f64() * 1e3, "ms");

    // Training layers: a few optimizer batches through the public API.
    m.set("rerankers.step_ms", median(fit_ms_per_batch), "ms");
    let (counts, shapes) = layers::train_steps(ds, model, &cache.train, 12, rc.batch);
    let spans = trace::summarize(&rapid_obs::global().snapshot());
    let us = |path: &str| spans.get(path).map_or(0.0, |s| s.mean_ns() / 1e3);
    let step = "rerankers.step";
    m.set(
        "core.forward_loss_us",
        us(&format!("{step}/core.forward_loss")),
        "us",
    );
    m.set(
        "autograd.backward_us",
        us(&format!("{step}/autograd.backward")),
        "us",
    );
    m.set(
        "autograd.optim_us",
        us(&format!("{step}/autograd.optim")),
        "us",
    );
    let step_self = spans.get(step).map_or(0.0, |s| s.mean_self_ns() / 1e6);
    m.set("rerankers.step_self_ms", step_self, "ms");
    layers::set_counts(&counts, m);
    layers::time_matmuls(&shapes, 15, rc.seed, m);

    layers::forward_layers(ds, rc, &cache.test, 300, m);

    let reg = rapid_obs::global();
    let degraded_before = reg.snapshot().counter("exec.degraded_chunks");
    let passes: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(model.rerank_batch(ds, &cache.test));
            t.elapsed().as_secs_f64() * 1e6 / cache.test.len() as f64
        })
        .collect();
    m.set("exec.rerank_batch_us_per_list", median(&passes), "us");
    m.set(
        "exec.degraded_chunks",
        (reg.snapshot().counter("exec.degraded_chunks") - degraded_before) as f64,
        "count",
    );

    // Tracing overhead on the workload's latency: single-list calls with
    // spans off and on, alternating so host drift hits both alike.
    let mut arms = [Vec::new(), Vec::new()];
    for i in 0..1200 {
        let on = i % 2;
        trace::set_enabled(on == 1);
        let prep = &cache.test[(i / 2) % cache.test.len()];
        let t = Instant::now();
        {
            let _s = trace::span("exec.rerank_batch.list");
            std::hint::black_box(model.rerank_batch(ds, std::slice::from_ref(prep)));
        }
        arms[on].push(t.elapsed().as_secs_f64() * 1e3);
    }
    trace::set_enabled(true);
    let [untraced, traced] = arms;
    m.set(
        "bench.trace_overhead_frac",
        median(&traced) / median(&untraced) - 1.0,
        "ratio",
    );
}
