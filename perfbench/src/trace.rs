//! The benchmark's spans: `rapid_obs::Span`s in the global registry,
//! opened only while tracing is on, so a disabled [`span`] costs one
//! atomic load. Spans nest per thread into slash-joined paths; a path's
//! self time is its total minus the totals of its direct child paths.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

use rapid_obs::{Snapshot, Span};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns the benchmark's spans on or off for the whole process.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Opens a span named `name` under the thread's innermost open span,
/// when tracing is on.
pub fn span(name: &'static str) -> Option<Span<'static>> {
    ENABLED.load(Ordering::Relaxed).then(|| Span::enter(name))
}

/// Totals of one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PathStats {
    /// Completed spans at this path.
    pub calls: u64,
    /// Their summed duration, ns.
    pub total_ns: u64,
    /// Median duration from the path's histogram (about 9% buckets), ns.
    pub p50_ns: f64,
    /// `total_ns` minus the summed totals of the direct child paths, ns.
    pub self_ns: u64,
}

impl PathStats {
    /// Mean duration per call, ns.
    pub fn mean_ns(&self) -> f64 {
        self.total_ns as f64 / self.calls.max(1) as f64
    }

    /// Mean self time per call, ns.
    pub fn mean_self_ns(&self) -> f64 {
        self.self_ns as f64 / self.calls.max(1) as f64
    }
}

/// Every span path of `snap` with its totals and self time. A path's
/// direct children are the recorded paths whose longest recorded proper
/// prefix (at a `/`) it is, so a child name holding a `/` itself still
/// counts once.
pub fn summarize(snap: &Snapshot) -> BTreeMap<String, PathStats> {
    let paths = snap.span_paths();
    let mut out: BTreeMap<String, PathStats> = paths
        .iter()
        .filter_map(|&p| {
            let s = snap.span(p)?;
            let stats = PathStats {
                calls: s.count,
                total_ns: s.total_ns,
                p50_ns: s.hist.quantile(0.5),
                self_ns: s.total_ns,
            };
            Some((p.to_string(), stats))
        })
        .collect();
    for &child in &paths {
        let parent = child
            .match_indices('/')
            .rev()
            .map(|(i, _)| &child[..i])
            .find(|p| out.contains_key(*p));
        if let (Some(parent), Some(c)) = (parent, snap.span(child)) {
            let p = out.get_mut(parent).expect("parent path was found above");
            p.self_ns = p.self_ns.saturating_sub(c.total_ns);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_obs::Registry;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // step(100) ⊃ forward(30) ⊃ lstm(20); step ⊃ backward(50)
        let r = Registry::new();
        let ms = Duration::from_millis;
        r.record_span("step", ms(100));
        r.record_span("step/forward", ms(30));
        r.record_span("step/forward/lstm", ms(20));
        r.record_span("step/backward", ms(50));
        let s = summarize(&r.snapshot());
        let ns = |d: u64| d * 1_000_000;
        assert_eq!(s["step"].self_ns, ns(20));
        assert_eq!(s["step/forward"].self_ns, ns(10));
        assert_eq!(s["step/forward/lstm"].self_ns, ns(20));
        assert_eq!(s["step/backward"].self_ns, ns(50));
        assert_eq!(s["step"].total_ns, ns(100));
    }

    #[test]
    fn repeated_calls_aggregate_per_path() {
        let r = Registry::new();
        let us = Duration::from_micros;
        r.record_span("root", us(20));
        r.record_span("root", us(40));
        r.record_span("root/leaf", us(5));
        r.record_span("root/leaf", us(7));
        let s = summarize(&r.snapshot());
        assert_eq!(s["root/leaf"].calls, 2);
        assert_eq!(s["root/leaf"].total_ns, 12_000);
        assert_eq!(s["root"].self_ns, 48_000);
        assert_eq!(s["root"].mean_self_ns(), 24_000.0);
        assert_eq!(s["root"].mean_ns(), 30_000.0);
    }

    #[test]
    fn a_child_name_with_a_slash_counts_under_its_recorded_parent() {
        // `op/matmul` opened under `fwd` records as `fwd/op/matmul`,
        // with no `fwd/op` path of its own.
        let r = Registry::new();
        let us = Duration::from_micros;
        r.record_span("fwd", us(10));
        r.record_span("fwd/op/matmul", us(4));
        let s = summarize(&r.snapshot());
        assert_eq!(s["fwd"].self_ns, 6_000);
        assert_eq!(s["fwd/op/matmul"].self_ns, 4_000);
    }

    #[test]
    fn recorded_spans_nest_on_their_thread() {
        let r = Registry::new();
        {
            let _outer = Span::enter_in(&r, "test.outer");
            let _inner = Span::enter_in(&r, "test.inner");
            std::hint::black_box(0u64);
        }
        let snap = r.snapshot();
        let s = summarize(&snap);
        let outer = s["test.outer"];
        let inner = s["test.outer/test.inner"];
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
    }

    #[test]
    fn a_disabled_span_records_nothing() {
        set_enabled(false);
        assert!(span("test.off").is_none());
    }
}
