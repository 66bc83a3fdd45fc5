//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics untraced, the per-layer metrics traced. Exits nonzero when any
//! output check failed.

use std::process::ExitCode;

use perfbench::report::{host_block, peak_rss_mb, result_line, Metrics};
use perfbench::{serve, trace, train, PER_LAYER, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad value {value:?} for {flag}"))?
            }
            "--trace" => {
                trace = value
                    .parse::<u8>()
                    .map_err(|_| format!("bad value {value:?} for {flag}"))?
                    == 1
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host_block(&args.workload, args.seed, args.trace));
    trace::set_enabled(args.trace);
    let out = match args.workload.as_str() {
        "train_rapid" => train::run(args.seed, args.seconds, args.trace),
        w => serve::run(w, args.seed, args.seconds, args.trace),
    };
    for note in &out.notes {
        println!("# {note}");
    }
    let t = &out.tally;
    println!(
        "# attempted={} non_2xx={} shed={} transport={} check_failed={}",
        t.attempted, t.non_2xx, t.shed, t.transport, t.check_failed
    );
    let metrics = if args.trace {
        print_spans();
        for (name, _, _) in out.layers.iter() {
            assert!(
                PER_LAYER.iter().any(|&(n, _)| n == name),
                "per-layer metric {name} is not declared in PER_LAYER"
            );
        }
        let mut layers = Metrics::default();
        for &(name, unit) in PER_LAYER {
            layers.set(name, out.layers.get(name).unwrap_or(0.0), unit);
        }
        layers
    } else {
        let mut m = out.metrics;
        m.set("ok_frac", 1.0 - out.tally.failed_frac(), "ratio");
        m.set("peak_rss_mb", peak_rss_mb(), "MiB");
        m
    };
    for (name, value, unit) in metrics.iter() {
        println!("# {name} = {value} {unit}");
    }
    let (correct, line) = result_line(&out.tally, &metrics);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Per span path in the registry (the benchmark's spans and those the
/// program opens itself): calls, mean and median time per call, and mean
/// self time per call.
fn print_spans() {
    for (path, s) in trace::summarize(&rapid_obs::global().snapshot()) {
        println!(
            "# span {path}: calls={} total_us.mean={:.3} total_us.p50={:.3} self_us.mean={:.3}",
            s.calls,
            s.mean_ns() / 1e3,
            s.p50_ns / 1e3,
            s.mean_self_ns() / 1e3
        );
    }
}
