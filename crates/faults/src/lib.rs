//! `rapid-faults` — deterministic fault injection for chaos testing.
//!
//! A production re-ranker must keep serving through the failures the
//! paper's offline pipeline never faced: crashes mid-training, corrupt
//! checkpoints, panicking workers, wedged telemetry clients. This crate
//! provides the *injection* half of that story — named sites in the
//! training/serving path consult an installed [`FaultPlan`] and, when a
//! matching entry arms, fail in a controlled, replayable way. The
//! recovery half (checkpoint resume, degradation ladders) lives in the
//! crates that call these helpers; `tests/chaos.rs` drives both.
//!
//! ## Sites
//!
//! | site          | where it is checked                                   |
//! |---------------|-------------------------------------------------------|
//! | `train.epoch` | `TrainStep` epoch boundary, after the checkpoint write |
//! | `train.loss`  | `TrainStep` loss read, before the finiteness guard    |
//! | `ckpt.write`  | atomic checkpoint write, between tmp-fsync and rename |
//! | `exec.chunk`  | start of every degraded parallel-map chunk (and retry)|
//! | `serve.request` | `rapid-serve` API and telemetry servers, per parsed request |
//! | `serve.slow`  | `rapid-serve` `/rerank` handler, before the model call|
//! | `serve.overload` | `rapid-serve` admission gate (trips it saturated)  |
//! | `ckpt.corrupt` | hot-swap loader, corrupts the candidate bytes read   |
//!
//! ## Spec grammar (`RAPID_FAULTS`)
//!
//! Entries are separated by `;` or `,`; each is `site=action`,
//! optionally with a probability suffix `@P` (default: always), or one
//! of the bare-action shorthands used by the CI chaos matrix:
//!
//! ```text
//! RAPID_FAULTS="crash-at-epoch:1"                  # train.epoch=crash-at-epoch:1
//! RAPID_FAULTS="worker-panic"                      # exec.chunk=panic
//! RAPID_FAULTS="io-error"                          # ckpt.write=io-error
//! RAPID_FAULTS="nan"                               # train.loss=nan
//! RAPID_FAULTS="exec.chunk=panic@0.25;seed=7"      # probabilistic, replayable
//! ```
//!
//! Actions: `panic`, `io-error`, `nan`, `delay:MS`,
//! `crash-at-epoch:N` (N is the 0-based index of the completed epoch),
//! and the alias `worker-panic` (= `panic`). A `seed=N` entry seeds the
//! internal RNG so probabilistic plans replay identically; entries with
//! probability 1 never consume the RNG at all, so adding or removing
//! always-fire entries cannot shift a seeded run.
//!
//! Plans are installed programmatically ([`install`]/[`clear`]) or from
//! the environment ([`init_from_env`], called once by
//! `Pipeline::prepare`). Every fired fault bumps `faults.fired_total`
//! and `faults.fired.<site>` in the global `rapid-obs` registry and
//! leaves a `Warn` event, so a chaos run's telemetry shows exactly what
//! was injected where.

use std::fmt;
use std::sync::Mutex;
use std::time::Duration;

/// Every site a helper in this workspace consults, for spec validation.
pub const SITES: [&str; 8] = [
    "train.epoch",
    "train.loss",
    "ckpt.write",
    "exec.chunk",
    "serve.request",
    "serve.slow",
    "serve.overload",
    "ckpt.corrupt",
];

/// What an armed fault does at its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with a `rapid-faults: injected panic` message.
    Panic,
    /// Return an injected `std::io::Error` from [`io_check`] (or drop
    /// the connection at `serve.request`).
    IoError,
    /// Replace the value at the site with `f32::NAN` ([`inject_nan`]).
    Nan,
    /// Sleep for the given number of milliseconds, then continue.
    Delay(u64),
    /// Panic at [`epoch_boundary`] once the given 0-based epoch index
    /// has completed (fires at most once per run — a resumed run that
    /// starts past the epoch never sees it again).
    CrashAtEpoch(u64),
}

impl fmt::Display for FaultAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultAction::Panic => write!(f, "panic"),
            FaultAction::IoError => write!(f, "io-error"),
            FaultAction::Nan => write!(f, "nan"),
            FaultAction::Delay(ms) => write!(f, "delay:{ms}"),
            FaultAction::CrashAtEpoch(n) => write!(f, "crash-at-epoch:{n}"),
        }
    }
}

/// One `site=action@prob` entry of a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// One of [`SITES`].
    pub site: &'static str,
    /// What to do when the entry arms.
    pub action: FaultAction,
    /// Probability the entry arms per check (1.0 = always; anything
    /// lower consumes one draw from the plan's seeded RNG per check).
    pub prob: f64,
}

/// A parsed fault plan: the entries plus the RNG seed for probabilistic
/// arming. Installed process-wide with [`install`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// The fault entries, checked in order; the first entry matching a
    /// site decides it.
    pub specs: Vec<FaultSpec>,
    /// Seed for probabilistic entries (`seed=N` in the spec; 0 default).
    pub seed: u64,
}

impl FaultPlan {
    /// Parses a `RAPID_FAULTS` spec string (grammar in the crate docs).
    ///
    /// # Errors
    /// Returns a human-readable message on an unknown site or action, a
    /// malformed number, or a probability outside `[0, 1]`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for entry in spec.split([';', ',']) {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            if let Some(seed) = entry.strip_prefix("seed=") {
                plan.seed = seed
                    .trim()
                    .parse::<u64>()
                    .map_err(|_| format!("bad seed {seed:?} (expected an unsigned integer)"))?;
                continue;
            }
            // `site=action` — but actions themselves contain no `=`, so
            // the first `=` splits correctly; a bare action gets its
            // default site.
            let (site_str, action_str) = match entry.split_once('=') {
                Some((s, a)) => (Some(s.trim()), a.trim()),
                None => (None, entry),
            };
            let (action_str, prob) = match action_str.split_once('@') {
                Some((a, p)) => {
                    let prob = p
                        .trim()
                        .parse::<f64>()
                        .ok()
                        .filter(|p| (0.0..=1.0).contains(p))
                        .ok_or_else(|| format!("bad probability {p:?} (expected 0..=1)"))?;
                    (a.trim(), prob)
                }
                None => (action_str, 1.0),
            };
            let action = parse_action(action_str)?;
            let site = match site_str {
                Some(s) => canonical_site(s)?,
                None => default_site(action_str)?,
            };
            plan.specs.push(FaultSpec { site, action, prob });
        }
        Ok(plan)
    }
}

/// Parses one action token.
fn parse_action(s: &str) -> Result<FaultAction, String> {
    if let Some(ms) = s.strip_prefix("delay:") {
        let ms = ms
            .parse::<u64>()
            .map_err(|_| format!("bad delay {ms:?} (expected milliseconds)"))?;
        return Ok(FaultAction::Delay(ms));
    }
    if let Some(n) = s.strip_prefix("crash-at-epoch:") {
        let n = n
            .parse::<u64>()
            .map_err(|_| format!("bad epoch {n:?} (expected a 0-based epoch index)"))?;
        return Ok(FaultAction::CrashAtEpoch(n));
    }
    match s {
        "panic" | "worker-panic" => Ok(FaultAction::Panic),
        "io-error" => Ok(FaultAction::IoError),
        "nan" => Ok(FaultAction::Nan),
        _ => Err(format!(
            "unknown action {s:?} (expected panic | worker-panic | io-error | nan | \
             delay:MS | crash-at-epoch:N)"
        )),
    }
}

/// The site a bare action token (no `site=` prefix) applies to.
fn default_site(action_str: &str) -> Result<&'static str, String> {
    if action_str.starts_with("delay:") {
        return Ok("serve.request");
    }
    if action_str.starts_with("crash-at-epoch:") {
        return Ok("train.epoch");
    }
    match action_str {
        "panic" => Ok("train.epoch"),
        "worker-panic" => Ok("exec.chunk"),
        "io-error" => Ok("ckpt.write"),
        "nan" => Ok("train.loss"),
        _ => Err(format!(
            "action {action_str:?} needs an explicit site= prefix"
        )),
    }
}

/// Maps a user-provided site name onto the canonical static list.
fn canonical_site(s: &str) -> Result<&'static str, String> {
    SITES
        .iter()
        .find(|&&k| k == s)
        .copied()
        .ok_or_else(|| format!("unknown site {s:?} (expected one of {})", SITES.join(" | ")))
}

/// The installed plan plus the RNG state for probabilistic entries.
struct Active {
    plan: FaultPlan,
    rng: u64,
}

static ACTIVE: Mutex<Option<Active>> = Mutex::new(None);

/// Installs `plan` process-wide, replacing any previous plan.
pub fn install(plan: FaultPlan) {
    let rng = splitmix(plan.seed);
    let mut guard = lock();
    *guard = Some(Active { plan, rng });
}

/// Removes the installed plan; every site becomes a no-op again.
pub fn clear() {
    let mut guard = lock();
    *guard = None;
}

/// Whether a plan is currently installed.
pub fn active() -> bool {
    lock().is_some()
}

/// Installs the plan named by the `RAPID_FAULTS` environment variable,
/// if any. Returns `true` when a plan was installed; an unset variable
/// leaves any programmatic plan untouched, and an unparsable one warns
/// (once per process) and installs nothing.
pub fn init_from_env() -> bool {
    let Ok(raw) = std::env::var("RAPID_FAULTS") else {
        return false;
    };
    match FaultPlan::parse(&raw) {
        Ok(plan) => {
            rapid_obs::event!(
                rapid_obs::Level::Warn,
                "faults",
                "fault plan active from RAPID_FAULTS: {raw}"
            );
            install(plan);
            true
        }
        Err(e) => {
            if rapid_obs::global().once("faults.bad_spec") {
                rapid_obs::event!(
                    rapid_obs::Level::Warn,
                    "faults",
                    "ignoring invalid RAPID_FAULTS={raw:?}: {e}"
                );
            }
            false
        }
    }
}

/// Checks `site`; an armed `panic` fires here, an armed `delay` sleeps.
/// Other actions are inert at plain-fire sites.
pub fn fire(site: &str) {
    match armed(site) {
        Some(FaultAction::Panic) => {
            record(site, FaultAction::Panic);
            panic!("rapid-faults: injected panic at {site}");
        }
        Some(FaultAction::Delay(ms)) => {
            record(site, FaultAction::Delay(ms));
            std::thread::sleep(Duration::from_millis(ms));
        }
        _ => {}
    }
}

/// Epoch-boundary check: `crash-at-epoch:N` panics once the 0-based
/// epoch `N` has just completed; `panic`/`delay` behave as in [`fire`].
/// Called by `TrainStep` *after* the boundary's checkpoint write, so a
/// crashed run always leaves the checkpoint it will resume from.
pub fn epoch_boundary(site: &str, completed_epoch: u64) {
    match armed(site) {
        Some(FaultAction::CrashAtEpoch(n)) if completed_epoch == n => {
            record(site, FaultAction::CrashAtEpoch(n));
            panic!("rapid-faults: injected crash after epoch {n} at {site}");
        }
        Some(FaultAction::Panic) => {
            record(site, FaultAction::Panic);
            panic!("rapid-faults: injected panic at {site}");
        }
        Some(FaultAction::Delay(ms)) => {
            record(site, FaultAction::Delay(ms));
            std::thread::sleep(Duration::from_millis(ms));
        }
        _ => {}
    }
}

/// I/O-path check: an armed `io-error` returns an injected error the
/// caller must propagate; `delay` sleeps; `panic` panics.
///
/// # Errors
/// Returns the injected error when an `io-error` entry arms.
pub fn io_check(site: &str) -> std::io::Result<()> {
    match armed(site) {
        Some(FaultAction::IoError) => {
            record(site, FaultAction::IoError);
            Err(std::io::Error::other(format!(
                "rapid-faults: injected I/O error at {site}"
            )))
        }
        Some(FaultAction::Panic) => {
            record(site, FaultAction::Panic);
            panic!("rapid-faults: injected panic at {site}");
        }
        Some(FaultAction::Delay(ms)) => {
            record(site, FaultAction::Delay(ms));
            std::thread::sleep(Duration::from_millis(ms));
            Ok(())
        }
        _ => Ok(()),
    }
}

/// Value-corruption check: `Some(f32::NAN)` when a `nan` entry arms.
pub fn inject_nan(site: &str) -> Option<f32> {
    if let Some(FaultAction::Nan) = armed(site) {
        record(site, FaultAction::Nan);
        return Some(f32::NAN);
    }
    None
}

/// Request-path check: `true` when the connection should be dropped
/// (`io-error` entry); `delay` sleeps first, `panic` panics (the server
/// catches it and stays up).
pub fn should_drop(site: &str) -> bool {
    match armed(site) {
        Some(FaultAction::IoError) => {
            record(site, FaultAction::IoError);
            true
        }
        Some(FaultAction::Panic) => {
            record(site, FaultAction::Panic);
            panic!("rapid-faults: injected panic at {site}");
        }
        Some(FaultAction::Delay(ms)) => {
            record(site, FaultAction::Delay(ms));
            std::thread::sleep(Duration::from_millis(ms));
            false
        }
        _ => false,
    }
}

/// Flag-site check: `true` when *any* entry arms at the site. Used by
/// sites whose failure mode is a condition rather than an action — the
/// serve admission gate reports itself saturated under `serve.overload`,
/// and the hot-swap loader corrupts its candidate bytes under
/// `ckpt.corrupt`. A `delay` entry still sleeps before tripping, so a
/// single site can model "slow *and* failing".
pub fn is_tripped(site: &str) -> bool {
    match armed(site) {
        Some(FaultAction::Delay(ms)) => {
            record(site, FaultAction::Delay(ms));
            std::thread::sleep(Duration::from_millis(ms));
            true
        }
        Some(action) => {
            record(site, action);
            true
        }
        None => false,
    }
}

fn lock() -> std::sync::MutexGuard<'static, Option<Active>> {
    ACTIVE.lock().unwrap_or_else(|p| p.into_inner())
}

/// Rolls the site against the installed plan. Probability-1 entries
/// skip the RNG entirely, so always-fire plans replay bit-identically
/// regardless of how many checks run.
fn armed(site: &str) -> Option<FaultAction> {
    let mut guard = lock();
    let active = guard.as_mut()?;
    let spec = active.plan.specs.iter().find(|s| s.site == site)?;
    let action = spec.action;
    if spec.prob < 1.0 {
        let roll = next_unit(&mut active.rng);
        if roll >= spec.prob {
            return None;
        }
    }
    Some(action)
}

/// Counts and logs one fired fault. When the firing thread carries an
/// active request trace, the event is stamped with its trace id so a
/// chaos-injected failure is correlatable with the request it hit.
fn record(site: &str, action: FaultAction) {
    let reg = rapid_obs::global();
    reg.counter_add("faults.fired_total", 1);
    reg.counter_add(&format!("faults.fired.{site}"), 1);
    match rapid_obs::trace::current_id() {
        Some(id) => rapid_obs::event!(
            rapid_obs::Level::Warn,
            "faults",
            "injected {action} at {site} [trace {id:016x}]"
        ),
        None => rapid_obs::event!(
            rapid_obs::Level::Warn,
            "faults",
            "injected {action} at {site}"
        ),
    }
}

/// SplitMix64 finalizer: spreads small seeds into a full-entropy,
/// nonzero xorshift state.
fn splitmix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) | 1
}

/// xorshift64* step mapped to a uniform draw in `[0, 1)`.
fn next_unit(state: &mut u64) -> f64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    let bits = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as TestMutex;

    /// The plan is process-global; serialize the tests that install one.
    static TEST_LOCK: TestMutex<()> = TestMutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Clears the plan even when a test body panics.
    struct Cleared;
    impl Drop for Cleared {
        fn drop(&mut self) {
            clear();
        }
    }

    #[test]
    fn parses_bare_action_aliases_onto_default_sites() {
        let plan = FaultPlan::parse("crash-at-epoch:2").unwrap();
        assert_eq!(
            plan.specs,
            vec![FaultSpec {
                site: "train.epoch",
                action: FaultAction::CrashAtEpoch(2),
                prob: 1.0,
            }]
        );
        let plan = FaultPlan::parse("worker-panic").unwrap();
        assert_eq!(plan.specs[0].site, "exec.chunk");
        assert_eq!(plan.specs[0].action, FaultAction::Panic);
        let plan = FaultPlan::parse("io-error").unwrap();
        assert_eq!(plan.specs[0].site, "ckpt.write");
        let plan = FaultPlan::parse("nan").unwrap();
        assert_eq!(plan.specs[0].site, "train.loss");
        let plan = FaultPlan::parse("delay:5").unwrap();
        assert_eq!(plan.specs[0].site, "serve.request");
        assert_eq!(plan.specs[0].action, FaultAction::Delay(5));
    }

    #[test]
    fn parses_explicit_entries_probabilities_and_seed() {
        let plan =
            FaultPlan::parse("exec.chunk=panic@0.25; seed=7, serve.request=delay:10").unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.specs.len(), 2);
        assert_eq!(plan.specs[0].site, "exec.chunk");
        assert!((plan.specs[0].prob - 0.25).abs() < 1e-12);
        assert_eq!(plan.specs[1].action, FaultAction::Delay(10));
    }

    #[test]
    fn rejects_unknown_sites_actions_and_bad_probabilities() {
        assert!(FaultPlan::parse("bogus.site=panic")
            .unwrap_err()
            .contains("unknown site"));
        assert!(FaultPlan::parse("train.epoch=explode")
            .unwrap_err()
            .contains("unknown action"));
        assert!(FaultPlan::parse("exec.chunk=panic@1.5")
            .unwrap_err()
            .contains("probability"));
        assert!(FaultPlan::parse("seed=xyz").unwrap_err().contains("seed"));
        assert!(FaultPlan::parse("crash-at-epoch:x")
            .unwrap_err()
            .contains("epoch"));
        assert!(FaultPlan::parse("").unwrap().specs.is_empty());
    }

    #[test]
    fn fire_panics_and_counts_when_armed() {
        let _g = locked();
        let _c = Cleared;
        install(FaultPlan::parse("exec.chunk=panic").unwrap());
        let before = rapid_obs::global()
            .snapshot()
            .counter("faults.fired.exec.chunk");
        let err = std::panic::catch_unwind(|| fire("exec.chunk")).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("rapid-faults: injected panic"), "{msg}");
        let after = rapid_obs::global()
            .snapshot()
            .counter("faults.fired.exec.chunk");
        assert_eq!(after, before + 1);
        // A different site stays inert under the same plan.
        fire("train.epoch");
    }

    #[test]
    fn fired_faults_are_stamped_with_the_active_trace_id() {
        let _g = locked();
        let _c = Cleared;
        install(FaultPlan::parse("serve.request=io-error").unwrap());
        static REG: std::sync::OnceLock<rapid_obs::Registry> = std::sync::OnceLock::new();
        let reg = REG.get_or_init(rapid_obs::Registry::new);
        let trace_id = {
            let g = rapid_obs::trace::start_request_in(reg, "faults-test");
            assert!(should_drop("serve.request"));
            g.trace_id().expect("explicit-registry guards always trace")
        };
        let needle = format!("[trace {trace_id:016x}]");
        let snap = rapid_obs::global().snapshot();
        assert!(
            snap.events()
                .iter()
                .any(|e| e.message.contains(&needle) && e.message.contains("serve.request")),
            "no fault event stamped with {needle}"
        );
    }

    #[test]
    fn crash_at_epoch_fires_only_at_its_epoch() {
        let _g = locked();
        let _c = Cleared;
        install(FaultPlan::parse("crash-at-epoch:1").unwrap());
        epoch_boundary("train.epoch", 0); // inert
        assert!(std::panic::catch_unwind(|| epoch_boundary("train.epoch", 1)).is_err());
        epoch_boundary("train.epoch", 2); // a resumed run sails past
    }

    #[test]
    fn io_check_and_nan_and_drop_interpret_their_actions() {
        let _g = locked();
        let _c = Cleared;
        install(
            FaultPlan::parse("ckpt.write=io-error;train.loss=nan;serve.request=io-error").unwrap(),
        );
        let err = io_check("ckpt.write").unwrap_err();
        assert!(err.to_string().contains("injected I/O error"), "{err}");
        assert!(inject_nan("train.loss").is_some_and(f32::is_nan));
        assert!(should_drop("serve.request"));
        clear();
        assert!(io_check("ckpt.write").is_ok());
        assert!(inject_nan("train.loss").is_none());
        assert!(!should_drop("serve.request"));
    }

    #[test]
    fn flag_sites_trip_on_any_armed_action_and_count() {
        let _g = locked();
        let _c = Cleared;
        install(FaultPlan::parse("serve.overload=io-error;ckpt.corrupt=panic").unwrap());
        let before = rapid_obs::global().snapshot().counter("faults.fired_total");
        assert!(is_tripped("serve.overload"));
        assert!(is_tripped("ckpt.corrupt"));
        assert!(!is_tripped("serve.slow"), "unarmed sites stay inert");
        let after = rapid_obs::global().snapshot().counter("faults.fired_total");
        assert_eq!(after, before + 2);
        clear();
        assert!(!is_tripped("serve.overload"));
    }

    #[test]
    fn serve_slow_parses_as_a_delay_site() {
        let plan = FaultPlan::parse("serve.slow=delay:40@0.25;seed=3").unwrap();
        assert_eq!(plan.specs[0].site, "serve.slow");
        assert_eq!(plan.specs[0].action, FaultAction::Delay(40));
        assert!((plan.specs[0].prob - 0.25).abs() < 1e-12);
    }

    #[test]
    fn probabilistic_plans_replay_identically_for_a_seed() {
        let _g = locked();
        let _c = Cleared;
        let decisions = |seed: u64| -> Vec<bool> {
            install(FaultPlan::parse(&format!("serve.request=io-error@0.5;seed={seed}")).unwrap());
            (0..64).map(|_| should_drop("serve.request")).collect()
        };
        let a = decisions(11);
        let b = decisions(11);
        let c = decisions(12);
        assert_eq!(a, b, "same seed must arm the same checks");
        assert_ne!(a, c, "different seeds should diverge");
        assert!(a.iter().any(|&d| d) && a.iter().any(|&d| !d), "p=0.5 mixes");
    }

    #[test]
    fn unset_env_leaves_programmatic_plan_untouched() {
        let _g = locked();
        let _c = Cleared;
        std::env::remove_var("RAPID_FAULTS");
        install(FaultPlan::parse("worker-panic").unwrap());
        assert!(!init_from_env());
        assert!(active(), "unset env must not clear an installed plan");
    }
}
