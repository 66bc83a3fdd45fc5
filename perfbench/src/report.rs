//! What one run reports: named metrics with units, the host and
//! provenance block, and the final one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::{percentile, Tally};

/// Metrics of one run by name: `(value, unit)`.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    /// Sets `name` to `value` in `unit`.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.insert(name.to_string(), (value, unit));
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    /// Sets `<name>.p50` and `<name>.p99` from `samples`; a percentile
    /// the samples cannot support (none, or fewer than ten beyond the
    /// p99) reads 0.
    pub fn set_p50_p99(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        let p50 = percentile(samples, 0.5).map_or(0.0, |p| p.value);
        let p99 = percentile(samples, 0.99).map_or(0.0, |p| p.value);
        self.set(&format!("{name}.p50"), p50, unit);
        self.set(&format!("{name}.p99"), p99, unit);
    }

    /// Every metric, by name.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.values.iter().map(|(k, v)| (k.as_str(), v.0, v.1))
    }
}

/// Formats the `q`-percentile of millisecond `samples` with its support
/// for the report.
pub fn describe_pct(label: &str, samples: &[f64], q: f64) -> String {
    match percentile(samples, q) {
        Some(p) => format!(
            "{label} = {:.4} ms (n={}, {} beyond)",
            p.value, p.n, p.beyond
        ),
        None => format!("{label} = unsupported (fewer than ten samples beyond)"),
    }
}

/// The host and provenance lines printed before every result.
pub fn host_block(workload: &str, seed: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = rapid_exec::worker_count();
    let env_workers = std::env::var("RAPID_WORKERS").unwrap_or_else(|_| "unset".to_string());
    let cpu = cpu_model().unwrap_or_else(|| "unknown".to_string());
    let commit = git_commit().unwrap_or_else(|| "unknown".to_string());
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# host: nproc={nproc} worker_count={workers} RAPID_WORKERS={env_workers}"
    );
    let _ = writeln!(s, "# host: cpu={cpu}");
    let _ = write!(
        s,
        "# run: workload={workload} seed={seed} trace={} commit={commit}",
        u8::from(trace)
    );
    s
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// The commit of a git checkout in the working directory, read from
/// `.git` directly so nothing outside the checkout is consulted.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// The process's resident-set high-water mark (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The last line of a run's standard output: the outcome and every
/// metric. A failure or a non-finite value makes the run incorrect.
pub fn result_line(tally: &Tally, metrics: &Metrics) -> (bool, String) {
    let mut correct = tally.failed() == 0;
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() {
            value
        } else {
            correct = false;
            0.0
        };
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        tally.attempted.max(1),
        tally.failed()
    );
    (correct, line)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object_with_the_contract_keys() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.25, "s");
        m.set("latency_p50_ms", 0.5, "ms");
        let t = Tally {
            attempted: 10,
            ..Tally::default()
        };
        let (ok, line) = result_line(&t, &m);
        assert!(ok);
        let v = serde_json::parse_value(&line).expect("valid JSON");
        assert!(v.field("correct").and_then(|c| c.as_bool()).expect("bool"));
        assert_eq!(v.field("attempted").and_then(|a| a.as_u64()).ok(), Some(10));
        assert_eq!(v.field("failed").and_then(|a| a.as_u64()).ok(), Some(0));
        let setup = v
            .field("metrics")
            .and_then(|m| m.field("setup_s"))
            .expect("setup_s");
        assert_eq!(
            setup.field("value").and_then(|x| x.as_f64()).ok(),
            Some(1.25)
        );
        assert_eq!(setup.field("unit").and_then(|x| x.as_str()).ok(), Some("s"));
    }

    #[test]
    fn failures_or_non_finite_values_make_the_run_incorrect() {
        let mut m = Metrics::default();
        m.set("x", 1.0, "ms");
        let failed = Tally {
            attempted: 10,
            check_failed: 1,
            ..Tally::default()
        };
        assert!(!result_line(&failed, &m).0);
        m.set("y", f64::NAN, "ms");
        assert!(!result_line(&Tally::default(), &m).0);
    }
}
