//! `serve_rerank` and `serve_ingest_mix`: a loopback `rapid-serve`
//! booted from a freshly trained checkpoint, its user store warmed with
//! distinct users, driven over HTTP by the benchmark's own generator.

use std::cell::Cell;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rapid_click::Dcm;
use rapid_exec::RerankInput;
use rapid_rerankers::PreparedList;
use rapid_serve::state::hash64;
use rapid_serve::{
    api, start, train_artifact, AppState, Deadline, DegradeTier, ServeConfig, ServeHandle,
    ServeModel, ServerConfig,
};

use crate::layers;
use crate::loadgen::{closed_loop, open_loop, tally, Done, Outcome as Sent, Req};
use crate::report::{describe_pct, Metrics};
use crate::stats::{blocked, judge_rung, ladder, median, search_ladder, Tally, Timed, GALLOP};
use crate::trace;
use crate::Outcome;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Distinct users written into the store during set-up.
const WARM_USERS: u64 = 120_000;
/// Events per warm user.
const EVENTS_PER_USER: u64 = 2;
/// Load-generator threads and connections. The figures are taken on
/// 2-core machines, and the generator uses no more threads than cores.
const CONNS: usize = 2;
/// Requests per measured rate: enough for ten beyond the p99.
const PER_RATE: usize = 1100;
/// `serve_rerank` measurement cycles at least, however short
/// `--seconds` is.
const MIN_CYCLES: usize = 3;
/// The served default list length, and the model's maximum.
const K_SERVED: usize = 10;
const K_MAX: usize = 30;
/// `serve_rerank` fixed rates (requests/s).
const LOW_QPS: f64 = 250.0;
const HIGH_QPS: f64 = 1000.0;
/// Capacity ladder: rungs 5% apart, `RUNGS_ABOVE` from `LADDER_BASE`
/// requests/s up and `RUNGS_BELOW` under it (down to about 54/s) for a
/// build too slow to hold the base rate; each offered for `RUNG_S`
/// seconds (and never fewer than `PER_RATE` requests).
const LADDER_BASE: f64 = 1000.0;
const RUNG_RATIO: f64 = 1.05;
const RUNGS_BELOW: usize = 60;
const RUNGS_ABOVE: usize = 40;
const RUNG_S: f64 = 0.5;
const RUNG_ATTEMPTS: u64 = 2;
/// Answers compared with the in-process model: one in this many.
const SAMPLE_EVERY: u64 = 16;
/// `serve_ingest_mix` phase 1: fresh users in rounds, events per POST.
/// `ingest_events_per_s` is the median of the rounds' rates.
const INGEST_USERS: u64 = 280_000;
const INGEST_ROUNDS: u64 = 14;
const INGEST_BATCH_USERS: u64 = 250;
/// `serve_ingest_mix` phase 2: event POSTs (users each) and reranks,
/// and the fewest reads per cycle (enough for ten beyond the p90).
const MIX_EVENT_QPS: f64 = 200.0;
const MIX_EVENT_USERS: u64 = 10;
const MIX_RERANK_QPS: f64 = 300.0;
const MIN_BLOCK_READS: usize = 200;
/// DCM tradeoff of the serving world's experiment config.
const LAMBDA: f32 = 0.9;

/// Id streams: every user id is `hash64(hash64(seed ^ stream) + i)`,
/// distinct within a stream because `hash64` is a bijection.
const WARM: u64 = 0x3a9f_0001;
const INGEST: u64 = 0x3a9f_0002;
const MIX_WRITE: u64 = 0x3a9f_0003;
const COLD: u64 = 0x3a9f_0004;

fn uid(seed: u64, stream: u64, i: u64) -> u64 {
    hash64(hash64(seed ^ stream).wrapping_add(i))
}

/// A booted server with its warm state.
struct Env {
    state: Arc<AppState>,
    handle: ServeHandle,
}

fn setup(seed: u64, dir: &Path) -> Env {
    // The server runs at its defaults, world and model seed included; the
    // workload seed drives the traffic.
    let cfg = ServeConfig::default();
    let ckpt = dir.join("serve.ckpt");
    train_artifact(&cfg, &ckpt).expect("train the serving checkpoint");
    let model = ServeModel::boot(&cfg, &ckpt).expect("boot from the checkpoint");
    let state = Arc::new(AppState::new(model));
    {
        let model = state.model();
        let ds = model.dataset();
        let n = ds.items.len() as u64;
        for i in 0..WARM_USERS {
            let user = uid(seed, WARM, i);
            for e in 0..EVENTS_PER_USER {
                let item = (hash64(user ^ e) % n) as usize;
                let click = e == 0;
                let cov = click.then(|| ds.items[item].coverage.as_slice());
                state.store.apply_event(user, item, cov, Some(e + 1));
            }
        }
    }
    let handle =
        start(Arc::clone(&state), &ServerConfig::default()).expect("bind a loopback server");
    Env { state, handle }
}

/// Boots `SETUPS` times, keeping the last; returns it with the median
/// set-up time.
fn setups(seed: u64, dir: &Path) -> (Env, f64) {
    let mut times = Vec::new();
    let mut env: Option<Env> = None;
    for _ in 0..SETUPS {
        if let Some(old) = env.take() {
            old.handle.stop();
        }
        let t = Instant::now();
        env = Some(setup(seed, dir));
        times.push(t.elapsed().as_secs_f64());
    }
    (env.expect("at least one set-up"), median(&times))
}

fn rerank_req(user: u64, k: usize) -> Req {
    Req {
        path: "/rerank",
        body: format!("{{\"user\": {user}, \"k\": {k}}}"),
    }
}

/// A `POST /events` batch: `EVENTS_PER_USER` events for each user.
fn events_req(users: &[u64], items: u64) -> Req {
    let mut events = Vec::with_capacity(users.len() * EVENTS_PER_USER as usize);
    for &u in users {
        for e in 0..EVENTS_PER_USER {
            let item = hash64(u ^ e) % items;
            events.push(format!(
                "{{\"user\": {u}, \"item\": {item}, \"click\": {}, \"seq\": {}}}",
                e == 0,
                e + 1
            ));
        }
    }
    Req {
        path: "/events",
        body: format!("{{\"events\": [{}]}}", events.join(", ")),
    }
}

/// One parsed `/rerank` answer.
struct Answer {
    items: Vec<usize>,
    base_user: usize,
    full: bool,
    stages_ms: [f64; 3],
}

fn parse_answer(body: &str) -> Option<Answer> {
    let v = serde_json::parse_value(body).ok()?;
    let items = v
        .field("items")
        .ok()?
        .as_array()
        .ok()?
        .iter()
        .map(|x| x.as_u64().map(|i| i as usize))
        .collect::<Result<Vec<_>, _>>()
        .ok()?;
    let t = v.field("timings_ms").ok()?;
    let stage = |name: &str| t.field(name).ok().and_then(|x| x.as_f64().ok());
    Some(Answer {
        items,
        base_user: v.field("base_user").ok()?.as_u64().ok()? as usize,
        full: v.field("tier").ok()?.as_str().ok()? == "full",
        stages_ms: [stage("rank")?, stage("prepare")?, stage("rerank")?],
    })
}

/// What one open-loop rerank phase measured once its answers are checked.
#[derive(Default)]
struct Checked {
    tally: Tally,
    timed: Vec<Timed>,
    /// Per 2xx: `[rank, prepare, rerank, transport]` ms.
    stages: Vec<[f64; 4]>,
    full: u64,
    clicks10: Vec<f64>,
}

impl Checked {
    /// Appends another phase's results after this one's.
    fn absorb(&mut self, other: Checked) {
        self.tally.merge(&other.tally);
        self.timed.extend(other.timed);
        self.stages.extend(other.stages);
        self.full += other.full;
        self.clicks10.extend(other.clicks10);
    }
}

/// Checks every answer of a rerank phase: each must be a permutation of
/// the user's candidate set, and a seeded sample must equal the
/// in-process `ServeModel::rerank` over the user's stored state.
fn check_reranks(state: &AppState, users: &[u64], k: usize, done: &[Done], seed: u64) -> Checked {
    let model = state.model();
    let ds = model.dataset();
    let dcm = Dcm::standard(k, LAMBDA);
    let mut out = Checked {
        tally: tally(done),
        ..Checked::default()
    };
    for d in done {
        let user = users[d.idx];
        let mut ok = d.outcome == Sent::Ok;
        if let Some(body) = &d.body {
            match parse_answer(body) {
                Some(a) => {
                    let cands = model
                        .rerank_with_budget(
                            user,
                            None,
                            k,
                            &Deadline::unbounded(),
                            DegradeTier::Passthrough,
                        )
                        .map(|r| r.items)
                        .unwrap_or_default();
                    let mut got = a.items.clone();
                    let mut want = cands;
                    got.sort_unstable();
                    want.sort_unstable();
                    let mut good = got == want && got.len() == k;
                    if good && a.full && hash64(seed ^ user).is_multiple_of(SAMPLE_EVERY) {
                        let stored = state.store.get(user);
                        good = model
                            .rerank(user, stored.as_ref(), k)
                            .is_ok_and(|r| r.items == a.items);
                    }
                    if good {
                        out.full += u64::from(a.full);
                        let [rank, prep, rr] = a.stages_ms;
                        out.stages
                            .push([rank, prep, rr, d.send_ms - (rank + prep + rr)]);
                        let phi = dcm.attractions(ds, a.base_user, &a.items);
                        out.clicks10
                            .push(f64::from(dcm.expected_clicks(&phi, 10.min(k))));
                    } else {
                        out.tally.check_failed += 1;
                        ok = false;
                    }
                }
                None => {
                    out.tally.check_failed += 1;
                    ok = false;
                }
            }
        }
        out.timed.push(Timed {
            latency_ms: d.latency_ms,
            late_ms: d.late_ms,
            ok,
        });
    }
    out
}

/// The registry counters the load moves: sheds, blend and passthrough
/// answers.
fn load_counters() -> [u64; 3] {
    let s = rapid_obs::global().snapshot();
    [
        s.counter("serve.shed"),
        s.counter("serve.degrade.blend"),
        s.counter("serve.degrade.passthrough"),
    ]
}

/// Runs `f` (a load phase) and adds how far it moved the load counters
/// to `acc`. The output checks call the model in process, so the
/// counters are read around the load alone.
fn counted<T>(acc: &Cell<[u64; 3]>, f: impl FnOnce() -> T) -> T {
    let before = load_counters();
    let out = f();
    let after = load_counters();
    let mut sum = acc.get();
    for i in 0..3 {
        sum[i] += after[i] - before[i];
    }
    acc.set(sum);
    out
}

fn lat(c: &Checked) -> Vec<f64> {
    c.timed.iter().map(|t| t.latency_ms).collect()
}

fn targets(seed: u64, stream: u64, n: usize, pick: impl Fn(u64) -> u64) -> Vec<u64> {
    (0..n as u64)
        .map(|i| pick(hash64(seed ^ stream ^ (i << 20))))
        .collect()
}

/// Where per-run files go, under the working directory; removed at the
/// end of the run.
const WORKDIR: &str = ".bench_work";

/// Runs `serve_rerank` or `serve_ingest_mix`.
pub fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let dir = Path::new(WORKDIR).join(format!("serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the work directory");
    let outcome = {
        let (env, setup_s) = setups(seed, &dir);
        let out = match workload {
            "serve_rerank" => rerank_workload(&env, seed, seconds, traced),
            _ => mix_workload(&env, seed, seconds, traced),
        };
        env.handle.stop();
        let mut out = out;
        out.metrics.set("setup_s", setup_s, "s");
        out
    };
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(WORKDIR);
    outcome
}

fn warm_user(seed: u64) -> impl Fn(u64) -> u64 {
    move |h| uid(seed, WARM, h % WARM_USERS)
}

fn rerank_workload(env: &Env, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let addr = env.handle.addr();
    let state = &env.state;
    let mut notes = Vec::new();
    let mut total = Tally::default();
    let acc = Cell::new([0u64; 3]);

    // Warm the connections and caches; checked, not timed.
    let users = targets(seed, 0x11, 200, warm_user(seed));
    let reqs: Vec<Req> = users.iter().map(|&u| rerank_req(u, K_SERVED)).collect();
    let (done, _) = closed_loop(addr, CONNS, &reqs);
    total.merge(&check_reranks(state, &users, K_SERVED, &done, seed).tally);

    // A phase adds how far its load moved the server's counters to
    // `acc`: the measured phases to one sum, the capacity probes, which
    // overload the server on purpose, to another.
    let phase = |stream: u64, rate: f64, n: usize, acc: &Cell<[u64; 3]>| {
        let users = targets(seed, stream, n, warm_user(seed));
        let reqs: Vec<Req> = users.iter().map(|&u| rerank_req(u, K_SERVED)).collect();
        let (done, wall) = counted(acc, || open_loop(addr, CONNS, rate, &reqs));
        (
            check_reranks(state, &users, K_SERVED, &done, seed),
            wall.as_secs_f64(),
        )
    };
    // Cycles until the deadline, each a `low` block, a `high` block and a
    // capacity search, so every figure's samples spread over the whole
    // run. Each search starts at the rung the last one found and climbs
    // or descends from there. Capacity probes past the limit are expected
    // to shed or fail: such failures fail their rung and are reported,
    // but only a failed output check counts against the run.
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let n_low = PER_RATE.div_ceil(MIN_CYCLES);
    let n_high = PER_RATE;
    let (rates, base) = ladder(LADDER_BASE, RUNG_RATIO, RUNGS_BELOW, RUNGS_ABOVE);
    let mut start = base;
    let mut low = Checked::default();
    let mut high = Checked::default();
    let mut capacities = Vec::new();
    let mut rung_log = Vec::new();
    let mut probe_failures = Tally::default();
    let probe_counters = Cell::new([0u64; 3]);
    let mut stream = 0x10_0000;
    while capacities.len() < MIN_CYCLES || Instant::now() < deadline {
        let cycle = capacities.len() as u64;
        low.absorb(phase(0x22 ^ (cycle << 8), LOW_QPS, n_low, &acc).0);
        high.absorb(phase(0x33 ^ (cycle << 8), HIGH_QPS, n_high, &acc).0);
        let mut goodput = vec![0.0; rates.len()];
        // The first search starts from scratch at the base rate; later
        // ones track the capacity the last one found, a rung at a time.
        let gallop = if capacities.is_empty() { GALLOP } else { 1 };
        let (best, _) = search_ladder(&rates, start, gallop, |i| {
            // A rung fails only when every attempt fails, so a stall of
            // the host during one attempt does not end the search.
            let n = PER_RATE.max((rates[i] * RUNG_S) as usize);
            (0..RUNG_ATTEMPTS).any(|_| {
                stream += 1;
                let (c, wall) = phase(stream, rates[i], n, &probe_counters);
                total.attempted += c.tally.attempted;
                total.check_failed += c.tally.check_failed;
                probe_failures.merge(&c.tally);
                let verdict = judge_rung(&c.timed);
                goodput[i] = c.timed.iter().filter(|t| t.ok).count() as f64 / wall;
                rung_log.push(format!(
                    "cycle {cycle} rung {}: offered {:.1}/s -> {verdict:?}",
                    i as i64 - base as i64,
                    rates[i]
                ));
                verdict.holds()
            })
        });
        if let Some(i) = best {
            start = i;
        }
        capacities.push(best.map_or(0.0, |i| goodput[i]));
    }
    total.merge(&low.tally);
    total.merge(&high.tally);
    let capacity = median(&capacities);
    notes.extend(rung_log);
    let [p_shed, p_blend, p_pass] = probe_counters.get();
    notes.push(format!(
        "capacity probes: {} attempted, {} non-2xx, {} shed, {} transport errors; server counted {p_shed} shed, {p_blend} blend, {p_pass} passthrough",
        probe_failures.attempted,
        probe_failures.non_2xx,
        probe_failures.shed,
        probe_failures.transport
    ));

    let low_lat = lat(&low);
    let high_lat = lat(&high);
    notes.push(describe_pct("rerank_p50_ms.low", &low_lat, 0.5));
    notes.push(describe_pct("rerank_p99_ms.low", &low_lat, 0.99));
    notes.push(describe_pct("rerank_p50_ms.high", &high_lat, 0.5));
    notes.push(describe_pct("rerank_p99_ms.high", &high_lat, 0.99));
    notes.push(format!(
        "capacity_qps = {capacity:.1} req/s (median over {} searches of the goodput at the highest rung with p99 <= 50 ms, no failures, lateness flat: {capacities:.1?})",
        capacities.len()
    ));
    notes.push(format!(
        "failed_frac = {} ({} of {})",
        total.failed_frac(),
        total.failed(),
        total.attempted
    ));

    // Latencies: the median over cycles of each cycle's `high` block
    // percentile.
    let blocks = capacities.len();
    let mut m = Metrics::default();
    m.set("throughput_per_s", capacity, "1/s");
    m.set(
        "latency_p50_ms",
        blocked(&high_lat, blocks, 0.5).unwrap_or(f64::NAN),
        "ms",
    );
    m.set(
        "latency_p90_ms",
        blocked(&high_lat, blocks, 0.9).unwrap_or(f64::NAN),
        "ms",
    );
    let clicks: Vec<f64> = low.clicks10.iter().chain(&high.clicks10).copied().collect();
    m.set("quality_click10", mean(&clicks), "clicks");

    let mut layer = Metrics::default();
    if traced {
        let phases = [&low, &high];
        serve_layers(state, &phases, acc.get(), seed, K_SERVED, &mut layer);
        let users = targets(seed, 0x55, 1000, warm_user(seed));
        state_get_probe(state, &users, &mut layer);
        // The ingest layers in process, on bodies of the size
        // `serve_ingest_mix` posts, for fresh users.
        let items = state.model().dataset().items.len() as u64;
        let bodies: Vec<String> = (0..50u64)
            .map(|b| {
                let users: Vec<u64> = (0..INGEST_BATCH_USERS)
                    .map(|i| uid(seed, INGEST, b * INGEST_BATCH_USERS + i))
                    .collect();
                events_req(&users, items).body
            })
            .collect();
        parse_events_probe(&bodies, &mut layer);
        apply_probe(state, seed, &mut layer);
        overhead_probe(env, seed, HIGH_QPS, K_SERVED, &mut layer);
    }
    Outcome {
        tally: total,
        metrics: m,
        layers: layer,
        notes,
    }
}

fn mix_workload(env: &Env, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let addr = env.handle.addr();
    let state = &env.state;
    let items = state.model().dataset().items.len() as u64;
    let mut notes = Vec::new();
    let mut total = Tally::default();
    let reg = rapid_obs::global();

    // Cycles of phase 1 (a closed-loop bulk ingest round of fresh users)
    // then phase 2 (open-loop writes of still more fresh users beside
    // open-loop k = 30 reads). Interleaving spreads each figure's samples
    // over the whole run, so a burst of host noise moves a few cycles'
    // samples and not the medians.
    let batches_per_round = INGEST_USERS / INGEST_ROUNDS / INGEST_BATCH_USERS;
    let per_round = batches_per_round * INGEST_BATCH_USERS;
    let reads_per_block =
        MIN_BLOCK_READS.max((seconds * 0.6 * MIX_RERANK_QPS) as usize / INGEST_ROUNDS as usize);
    let writes_per_block = (reads_per_block as f64 * MIX_EVENT_QPS / MIX_RERANK_QPS) as u64;
    let per_write = MIX_EVENT_USERS * EVENTS_PER_USER;
    let mut round_rates = Vec::new();
    let mut accepted_total = 0u64;
    let mut event_bodies = Vec::new();
    let mut checked = Checked::default();
    let mut read_users = Vec::new();
    let mut write_done = Vec::new();
    let acc = Cell::new([0u64; 3]);
    for r in 0..INGEST_ROUNDS {
        let reqs: Vec<Req> = (0..batches_per_round)
            .map(|b| {
                let first = r * per_round + b * INGEST_BATCH_USERS;
                let users: Vec<u64> = (first..first + INGEST_BATCH_USERS)
                    .map(|i| uid(seed, INGEST, i))
                    .collect();
                events_req(&users, items)
            })
            .collect();
        let accepted_before = reg.snapshot().counter("serve.events_accepted");
        let (done, wall) = closed_loop(addr, CONNS, &reqs);
        let accepted = reg.snapshot().counter("serve.events_accepted") - accepted_before;
        let mut t = tally(&done);
        let expected = per_round * EVENTS_PER_USER;
        t.attempted += 1;
        if accepted != expected {
            t.check_failed += 1;
            notes.push(format!(
                "round {r}: {accepted} events accepted of {expected}"
            ));
        }
        total.merge(&t);
        round_rates.push(accepted as f64 / wall.as_secs_f64());
        accepted_total += accepted;
        if r == 0 {
            event_bodies = reqs.into_iter().take(50).map(|q| q.body).collect();
        }

        // Half the reads target users the ingest rounds wrote so far,
        // half are cold.
        let written = (r + 1) * per_round;
        let writes: Vec<Req> = (0..writes_per_block)
            .map(|b| {
                let first = (r * writes_per_block + b) * MIX_EVENT_USERS;
                let users: Vec<u64> = (first..first + MIX_EVENT_USERS)
                    .map(|i| uid(seed, MIX_WRITE, i))
                    .collect();
                events_req(&users, items)
            })
            .collect();
        let users = targets(seed, 0x66 ^ (r << 8), reads_per_block, |h| {
            if h % 2 == 0 {
                uid(seed, INGEST, (h >> 1) % written)
            } else {
                uid(seed, COLD, h >> 1)
            }
        });
        let reads: Vec<Req> = users.iter().map(|&u| rerank_req(u, K_MAX)).collect();
        let (wrote, read) = counted(&acc, || {
            std::thread::scope(|s| {
                let w = s.spawn(|| open_loop(addr, 1, MIX_EVENT_QPS, &writes).0);
                let r = s.spawn(|| open_loop(addr, 1, MIX_RERANK_QPS, &reads).0);
                (
                    w.join().expect("write stream panicked"),
                    r.join().expect("read stream panicked"),
                )
            })
        });
        checked.absorb(check_reranks(state, &users, K_MAX, &read, seed));
        read_users.extend(users);
        write_done.extend(wrote);
    }
    // The median round: one round slowed by the host moves one sample.
    let ingest_rate = median(&round_rates);
    notes.push(format!("ingest rounds: {round_rates:.0?} events/s"));

    // Each write must apply every event it carried: all users are fresh.
    let mut writes_tally = tally(&write_done);
    writes_tally.check_failed += write_done
        .iter()
        .filter_map(|d| d.body.as_deref())
        .filter(|body| {
            serde_json::parse_value(body)
                .ok()
                .and_then(|v| v.field("accepted").ok().and_then(|a| a.as_u64().ok()))
                != Some(per_write)
        })
        .count() as u64;
    total.merge(&writes_tally);
    total.merge(&checked.tally);

    // Every distinct user written must be in the store, exactly once.
    let expect_users =
        WARM_USERS + INGEST_ROUNDS * per_round + INGEST_ROUNDS * writes_per_block * MIX_EVENT_USERS;
    total.attempted += 1;
    if state.store.len() as u64 != expect_users {
        total.check_failed += 1;
        notes.push(format!(
            "store holds {} users, expected {expect_users}",
            state.store.len()
        ));
    }

    let events_lat: Vec<f64> = write_done.iter().map(|d| d.latency_ms).collect();
    let rerank_lat = lat(&checked);
    notes.push(format!("ingest_events_per_s = {ingest_rate:.1} events/s (median of {INGEST_ROUNDS} rounds, {accepted_total} events)"));
    notes.push(describe_pct("events_p99_ms.mix", &events_lat, 0.99));
    notes.push(describe_pct("rerank_p50_ms.mix", &rerank_lat, 0.5));
    notes.push(describe_pct("rerank_p99_ms.mix", &rerank_lat, 0.99));
    notes.push(format!("users stored = {}", state.store.len()));
    notes.push(format!(
        "failed_frac = {} ({} of {})",
        total.failed_frac(),
        total.failed(),
        total.attempted
    ));

    // Latencies: the median over cycles of each cycle's percentile.
    let blocks = INGEST_ROUNDS as usize;
    let mut m = Metrics::default();
    m.set("throughput_per_s", ingest_rate, "1/s");
    m.set(
        "latency_p50_ms",
        blocked(&rerank_lat, blocks, 0.5).unwrap_or(f64::NAN),
        "ms",
    );
    m.set(
        "latency_p90_ms",
        blocked(&rerank_lat, blocks, 0.9).unwrap_or(f64::NAN),
        "ms",
    );
    m.set("quality_click10", mean(&checked.clicks10), "clicks");

    let mut layer = Metrics::default();
    if traced {
        serve_layers(state, &[&checked], acc.get(), seed, K_MAX, &mut layer);
        parse_events_probe(&event_bodies, &mut layer);
        apply_probe(state, seed, &mut layer);
        state_get_probe(state, &read_users, &mut layer);
        overhead_probe(env, seed, MIX_RERANK_QPS, K_MAX, &mut layer);
    }
    Outcome {
        tally: total,
        metrics: m,
        layers: layer,
        notes,
    }
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Serve-path layers from the answers' stage timings, the registry's
/// counters, in-process probes of the API codec, and the model's forward
/// building blocks at the served list length.
fn serve_layers(
    state: &AppState,
    phases: &[&Checked],
    counters: [u64; 3],
    seed: u64,
    k: usize,
    m: &mut Metrics,
) {
    let stage = |j: usize| -> Vec<f64> {
        phases
            .iter()
            .flat_map(|c| c.stages.iter().map(move |s| s[j]))
            .collect()
    };
    m.set_p50_p99("serve.model.rank_ms", &stage(0), "ms");
    m.set_p50_p99("serve.model.prepare_ms", &stage(1), "ms");
    m.set_p50_p99("serve.model.rerank_ms", &stage(2), "ms");
    m.set_p50_p99("serve.transport_ms", &stage(3), "ms");
    let late: Vec<f64> = phases
        .iter()
        .flat_map(|c| c.timed.iter().map(|t| t.late_ms))
        .collect();
    m.set_p50_p99("bench.loadgen.late_ms", &late, "ms");
    let ok2xx: u64 = phases.iter().map(|c| c.stages.len() as u64).sum();
    let full: u64 = phases.iter().map(|c| c.full).sum();
    m.set(
        "serve.model.full_tier_frac",
        full as f64 / ok2xx.max(1) as f64,
        "ratio",
    );
    m.set("serve.admission.shed", counters[0] as f64, "count");
    m.set("serve.degrade.blend", counters[1] as f64, "count");
    m.set("serve.degrade.passthrough", counters[2] as f64, "count");
    m.set("serve.state.users", state.store.len() as f64, "count");

    let model = state.model();
    let users: Vec<u64> = (0..300).map(|i| uid(seed, WARM, i)).collect();
    let bodies: Vec<String> = users.iter().map(|&u| rerank_req(u, k).body).collect();
    let parse: Vec<f64> = bodies
        .iter()
        .map(|b| {
            let _s = trace::span("serve.api.parse_rerank");
            let t = Instant::now();
            std::hint::black_box(api::parse_rerank(b.as_bytes()).map(|r| r.user).unwrap_or(0));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    m.set("serve.api.parse_rerank_us", median(&parse), "us");
    let answers: Vec<_> = users
        .iter()
        .filter_map(|&u| {
            model
                .rerank(u, state.store.get(u).as_ref(), k)
                .ok()
                .map(|r| (u, r))
        })
        .collect();
    let encode: Vec<f64> = answers
        .iter()
        .map(|(u, r)| {
            let _s = trace::span("serve.api.encode");
            let t = Instant::now();
            std::hint::black_box(api::rerank_body(*u, r).len());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    m.set("serve.api.encode_us", median(&encode), "us");

    // The model's forward blocks on served lists (candidates in served
    // order, as `ServeModel` prepares them).
    let ds = model.dataset();
    let lists: Vec<PreparedList> = answers
        .iter()
        .map(|(_, r)| {
            PreparedList::from_input(
                ds,
                RerankInput {
                    user: r.base_user,
                    items: r.items.clone(),
                    init_scores: vec![0.0; r.items.len()],
                },
            )
        })
        .collect();
    layers::forward_layers(ds, &model.config().rapid_config(), &lists, 300, m);
}

/// `UserStore::get` per call, µs: the median of batches of 100 reads.
fn state_get_probe(state: &AppState, users: &[u64], m: &mut Metrics) {
    let per_call: Vec<f64> = users
        .chunks(100)
        .map(|chunk| {
            let _s = trace::span("serve.state.get");
            let t = Instant::now();
            for &u in chunk {
                std::hint::black_box(state.store.get(u));
            }
            t.elapsed().as_secs_f64() * 1e6 / chunk.len() as f64
        })
        .collect();
    m.set("serve.state.get_us", median(&per_call), "us");
}

/// `api::parse_events` per `/events` body, µs: the median over `bodies`.
fn parse_events_probe(bodies: &[String], m: &mut Metrics) {
    let per_call: Vec<f64> = bodies
        .iter()
        .map(|b| {
            let _s = trace::span("serve.api.parse_events");
            let t = Instant::now();
            std::hint::black_box(
                api::parse_events(b.as_bytes())
                    .map(|e| e.len())
                    .unwrap_or(0),
            );
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    m.set("serve.api.parse_events_us", median(&per_call), "us");
}

/// `UserStore::apply_event` per call for fresh users, µs: the median of
/// batches of 100 writes.
fn apply_probe(state: &AppState, seed: u64, m: &mut Metrics) {
    let model = state.model();
    let ds = model.dataset();
    let per_call: Vec<f64> = (0..20u64)
        .map(|b| {
            let _s = trace::span("serve.state.apply_event");
            let t = Instant::now();
            for i in 0..100 {
                let user = uid(seed, COLD ^ 0xffff, b * 100 + i);
                let item = (user % ds.items.len() as u64) as usize;
                state
                    .store
                    .apply_event(user, item, Some(&ds.items[item].coverage), Some(1));
            }
            t.elapsed().as_secs_f64() * 1e6 / 100.0
        })
        .collect();
    m.set("serve.state.apply_event_us", median(&per_call), "us");
}

/// The tracing overhead on rerank latency: open-loop phases with spans
/// off and on, alternating so host drift hits both alike.
fn overhead_probe(env: &Env, seed: u64, rate: f64, k: usize, m: &mut Metrics) {
    let mut arms = [Vec::new(), Vec::new()];
    for part in 0..4u64 {
        let users = targets(seed, 0x77 + part, PER_RATE / 2, warm_user(seed));
        let reqs: Vec<Req> = users.iter().map(|&u| rerank_req(u, k)).collect();
        let on = (part % 2) as usize;
        trace::set_enabled(on == 1);
        let (done, _) = open_loop(env.handle.addr(), CONNS, rate, &reqs);
        arms[on].extend(done.iter().map(|d| d.latency_ms));
    }
    trace::set_enabled(true);
    m.set(
        "bench.trace_overhead_frac",
        median(&arms[1]) / median(&arms[0]) - 1.0,
        "ratio",
    );
}
