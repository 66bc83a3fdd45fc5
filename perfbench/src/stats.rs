//! The benchmark's own statistics: percentiles with their sample
//! support, the capacity rung rule, and failure accounting.

/// Samples that must lie beyond a reported percentile. A tail
/// percentile with fewer samples past it is an extrapolation, not a
/// measurement.
pub const MIN_BEYOND: usize = 10;

/// The latency limit a capacity rung must hold at p99, in ms.
pub const CAPACITY_P99_LIMIT_MS: f64 = 50.0;

/// How far (ms) the median generator lateness of a rung's last quarter
/// may exceed that of its first quarter before the backlog counts as
/// growing.
pub const LATENESS_GROWTH_MS: f64 = 2.0;

/// One percentile reading with the sample support behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The percentile value (nearest rank).
    pub value: f64,
    /// Samples the percentile was taken over.
    pub n: usize,
    /// Samples strictly greater than `value`.
    pub beyond: usize,
}

/// The nearest-rank `q`-quantile of `samples` (`0 < q <= 1`), or `None`
/// when fewer than [`MIN_BEYOND`] samples lie strictly beyond it. The
/// median of a small sample is always reported; a tail is not.
pub fn percentile(samples: &[f64], q: f64) -> Option<Pct> {
    if samples.is_empty() || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let value = sorted[rank - 1];
    let beyond = n - sorted.partition_point(|&x| x <= value);
    if q > 0.5 && beyond < MIN_BEYOND {
        return None;
    }
    Some(Pct { value, n, beyond })
}

/// Median (nearest rank, lower middle) of `samples`; `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).map_or(f64::NAN, |p| p.value)
}

/// The median over `blocks` consecutive equal parts of `samples` of
/// each part's `q`-percentile, or `None` when a part cannot support it.
/// One burst of host noise moves one part, not the reported value.
pub fn blocked(samples: &[f64], blocks: usize, q: f64) -> Option<f64> {
    let blocks = blocks.max(1);
    let size = samples.len() / blocks;
    if size == 0 {
        return None;
    }
    let per: Option<Vec<f64>> = samples
        .chunks(size)
        .take(blocks)
        .map(|part| percentile(part, q).map(|p| p.value))
        .collect();
    per.map(|v| median(&v))
}

/// Outcome counts of one phase: what was attempted and what failed.
/// A failure is a non-2xx answer, a shed, a transport error or a failed
/// output check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Non-2xx answers other than sheds.
    pub non_2xx: u64,
    /// `429`/`503` sheds.
    pub shed: u64,
    /// Transport errors (connect, write, read, framing).
    pub transport: u64,
    /// Answers that arrived but failed an output check.
    pub check_failed: u64,
}

impl Tally {
    /// All failures, each operation counted once.
    pub fn failed(&self) -> u64 {
        self.non_2xx + self.shed + self.transport + self.check_failed
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// Adds another phase's counts.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.non_2xx += other.non_2xx;
        self.shed += other.shed;
        self.transport += other.transport;
        self.check_failed += other.check_failed;
    }
}

/// One request of an open-loop phase, in due order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    /// Latency from the due time, ms.
    pub latency_ms: f64,
    /// How late the generator sent it, ms.
    pub late_ms: f64,
    /// Whether the request succeeded (2xx and passed its checks).
    pub ok: bool,
}

/// Why a capacity rung failed, or that it held.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rung {
    /// p99 ≤ the limit, nothing failed, lateness not growing.
    Holds {
        /// The rung's p99 latency from due time, ms.
        p99_ms: f64,
    },
    /// Some request failed or was shed.
    Failures(u64),
    /// p99 above the limit (or too few samples for a p99).
    SlowTail(Option<f64>),
    /// The generator fell further behind over the rung.
    BacklogGrowing {
        /// Median lateness of the first quarter, ms.
        first_ms: f64,
        /// Median lateness of the last quarter, ms.
        last_ms: f64,
    },
}

impl Rung {
    /// Whether the rung counts toward capacity.
    pub fn holds(&self) -> bool {
        matches!(self, Rung::Holds { .. })
    }
}

/// Judges one capacity rung from its requests (in due order). A failed
/// request counts as missing the latency limit, and any failure fails
/// the rung outright; so does a p99 above [`CAPACITY_P99_LIMIT_MS`] or
/// generator lateness that grows from the first quarter to the last.
pub fn judge_rung(reqs: &[Timed]) -> Rung {
    let failures = reqs.iter().filter(|r| !r.ok).count() as u64;
    if failures > 0 {
        return Rung::Failures(failures);
    }
    let lat: Vec<f64> = reqs.iter().map(|r| r.latency_ms).collect();
    match percentile(&lat, 0.99) {
        Some(p) if p.value <= CAPACITY_P99_LIMIT_MS => {}
        other => return Rung::SlowTail(other.map(|p| p.value)),
    }
    let quarter = (reqs.len() / 4).max(1);
    let late = |part: &[Timed]| median(&part.iter().map(|r| r.late_ms).collect::<Vec<_>>());
    let first_ms = late(&reqs[..quarter]);
    let last_ms = late(&reqs[reqs.len() - quarter..]);
    if last_ms - first_ms > LATENESS_GROWTH_MS {
        return Rung::BacklogGrowing { first_ms, last_ms };
    }
    Rung::Holds {
        p99_ms: percentile(&lat, 0.99).map_or(f64::NAN, |p| p.value),
    }
}

/// A fixed geometric ladder of offered rates, ascending, each `ratio`
/// times the last: `below` rungs under `base`, then `above` rungs from
/// `base` up. Returns the rates and the index of `base`.
pub fn ladder(base: f64, ratio: f64, below: usize, above: usize) -> (Vec<f64>, usize) {
    let rates = (0..below + above)
        .map(|i| base * ratio.powi(i as i32 - below as i32))
        .collect();
    (rates, below)
}

/// Rungs a search from scratch skips at a time (about 22% at 5% rungs),
/// so no probe offers much more than the last rung that held.
pub const GALLOP: usize = 4;

/// Finds the highest rung of the fixed ladder that holds, probing each
/// chosen rung with `probe`. It probes rung `start` first; when that
/// holds it climbs `gallop` rungs at a time until a rung fails, and when
/// it fails it descends `gallop` rungs at a time until one holds (none
/// holding down to rung 0 means no capacity on the ladder). Then it
/// bisects between the highest rung that held and the lowest that
/// failed. A search from scratch uses [`GALLOP`]; one that tracks a
/// known capacity uses 1. Returns the index of the highest holding rung
/// and every probe made, in order.
pub fn search_ladder(
    rates: &[f64],
    start: usize,
    gallop: usize,
    mut probe: impl FnMut(usize) -> bool,
) -> (Option<usize>, Vec<(usize, bool)>) {
    let gallop = gallop.max(1);
    let mut probes = Vec::new();
    let mut run = |i: usize, probes: &mut Vec<(usize, bool)>| {
        let ok = probe(i);
        probes.push((i, ok));
        ok
    };
    if start >= rates.len() {
        return (None, probes);
    }
    // `lo` is the highest known holding rung, `hi` the lowest known
    // failing rung (or one past the end).
    let (mut lo, mut hi);
    if run(start, &mut probes) {
        lo = start;
        hi = rates.len();
        while lo + gallop < hi {
            if run(lo + gallop, &mut probes) {
                lo += gallop;
            } else {
                hi = lo + gallop;
            }
            if hi < rates.len() {
                break;
            }
        }
    } else {
        hi = start;
        loop {
            if hi == 0 {
                return (None, probes);
            }
            let below = hi.saturating_sub(gallop);
            if run(below, &mut probes) {
                lo = below;
                break;
            }
            hi = below;
        }
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if run(mid, &mut probes) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (Some(lo), probes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(latency_ms: f64, late_ms: f64) -> Timed {
        Timed {
            latency_ms,
            late_ms,
            ok: true,
        }
    }

    #[test]
    fn percentile_reports_value_count_and_support() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p50 = percentile(&samples, 0.5).expect("median always reported");
        assert_eq!(p50.value, 500.0);
        assert_eq!(p50.n, 1000);
        assert_eq!(p50.beyond, 500);
        let p99 = percentile(&samples, 0.99).expect("ten samples beyond p99");
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.beyond, 10);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=999).map(f64::from).collect();
        // 999 samples put only 9 beyond the nearest-rank p99.
        assert_eq!(percentile(&samples, 0.99), None);
        assert!(percentile(&samples, 0.98).is_some());
        assert_eq!(percentile(&[], 0.5), None);
        // Ties at the tail do not count as beyond.
        let mut flat = vec![1.0; 1000];
        flat[999] = 2.0;
        assert_eq!(percentile(&flat, 0.99), None);
    }

    #[test]
    fn median_of_small_samples_is_reported() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn blocked_percentiles_ignore_one_noisy_block() {
        let mut samples: Vec<f64> = (0..3300).map(|i| 1.0 + (i % 100) as f64 / 100.0).collect();
        // A burst makes the middle block ten times slower.
        for x in &mut samples[1100..2200] {
            *x *= 10.0;
        }
        let p99 = blocked(&samples, 3, 0.99).expect("every block supports a p99");
        assert!(p99 < 2.0, "{p99}");
        let first_p50 = percentile(&samples[..1100], 0.5).map(|p| p.value);
        assert_eq!(blocked(&samples, 3, 0.5), first_p50);
        // 3 blocks of 999 cannot each support a p99.
        assert_eq!(blocked(&samples[..2997], 3, 0.99), None);
        assert_eq!(blocked(&[], 3, 0.5), None);
    }

    #[test]
    fn failed_frac_counts_every_kind_of_failure_once() {
        let mut t = Tally {
            attempted: 100,
            non_2xx: 1,
            shed: 2,
            transport: 3,
            check_failed: 4,
        };
        assert_eq!(t.failed(), 10);
        assert!((t.failed_frac() - 0.1).abs() < 1e-12);
        t.merge(&Tally {
            attempted: 100,
            ..Tally::default()
        });
        assert!((t.failed_frac() - 0.05).abs() < 1e-12);
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }

    #[test]
    fn a_fast_steady_rung_holds() {
        let reqs: Vec<Timed> = (0..1100).map(|i| ok(1.0 + i as f64 * 1e-3, 0.1)).collect();
        assert!(judge_rung(&reqs).holds());
    }

    #[test]
    fn a_single_shed_or_failure_fails_the_rung() {
        let mut reqs: Vec<Timed> = (0..1100).map(|_| ok(1.0, 0.1)).collect();
        reqs[500].ok = false;
        assert_eq!(judge_rung(&reqs), Rung::Failures(1));
    }

    #[test]
    fn a_slow_tail_fails_the_rung() {
        let mut reqs: Vec<Timed> = (0..1100).map(|i| ok(1.0 + i as f64 * 1e-3, 0.1)).collect();
        for (j, r) in reqs.iter_mut().take(20).enumerate() {
            r.latency_ms = 80.0 + j as f64;
        }
        assert!(matches!(judge_rung(&reqs), Rung::SlowTail(Some(v)) if v > 50.0));
        // Too few samples for a supported p99 is not a pass either.
        assert_eq!(judge_rung(&reqs[..500]), Rung::SlowTail(None));
    }

    #[test]
    fn growing_lateness_fails_the_rung_even_under_the_limit() {
        let reqs: Vec<Timed> = (0..1100)
            .map(|i| ok(2.0 + i as f64 * 1e-3, i as f64 * 0.01))
            .collect();
        assert!(matches!(judge_rung(&reqs), Rung::BacklogGrowing { .. }));
    }

    #[test]
    fn ladder_rungs_are_geometric_and_close() {
        let (rates, base) = ladder(100.0, 1.05, 3, 4);
        assert_eq!(rates.len(), 7);
        assert_eq!(base, 3);
        assert!((rates[base] - 100.0).abs() < 1e-9);
        for w in rates.windows(2) {
            assert!((w[1] / w[0] - 1.05).abs() < 1e-9);
        }
    }

    #[test]
    fn the_search_finds_the_highest_holding_rung_without_overshooting() {
        let (rates, start) = ladder(100.0, 1.05, 20, 40);
        for cap in start..rates.len() {
            let (best, probes) = search_ladder(&rates, start, GALLOP, |i| i <= cap);
            assert_eq!(best, Some(cap));
            assert!(
                probes.len() <= 2 + (cap - start) / GALLOP + 2,
                "{} probes",
                probes.len()
            );
            let highest = probes.iter().map(|p| p.0).max().unwrap_or(0);
            assert!(
                highest <= cap + GALLOP,
                "probed rung {highest} past capacity {cap}"
            );
        }
        let (none, probes) = search_ladder(&rates, start, GALLOP, |_| false);
        assert_eq!(none, None);
        assert_eq!(probes.first(), Some(&(start, false)));
        assert_eq!(probes.last(), Some(&(0, false)));
    }

    #[test]
    fn a_failing_base_rung_extends_the_search_downward() {
        // A slow build: capacity sits below the base rate.
        let (rates, start) = ladder(100.0, 1.05, 20, 40);
        for cap in 0..start {
            let (best, probes) = search_ladder(&rates, start, GALLOP, |i| i <= cap);
            assert_eq!(best, Some(cap), "capacity at rung {cap}");
            assert!(probes.iter().all(|&(i, ok)| ok == (i <= cap)));
            assert!(probes.len() <= 1 + (start - cap) / GALLOP + 1 + 2);
        }
    }

    #[test]
    fn a_tracking_search_steps_one_rung_at_a_time() {
        let (rates, _) = ladder(100.0, 1.05, 20, 40);
        // Capacity moved up two rungs since the last search.
        let (best, probes) = search_ladder(&rates, 30, 1, |i| i <= 32);
        assert_eq!(best, Some(32));
        assert_eq!(
            probes,
            vec![(30, true), (31, true), (32, true), (33, false)]
        );
        // And down two.
        let (best, probes) = search_ladder(&rates, 30, 1, |i| i <= 28);
        assert_eq!(best, Some(28));
        assert_eq!(probes, vec![(30, false), (29, false), (28, true)]);
    }
}
