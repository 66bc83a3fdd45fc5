//! The telemetry routes and the telemetry-only sidecar server.
//!
//! [`route`] answers five `GET` routes, each rendered from a fresh
//! snapshot of the global `rapid-obs` registry at request time:
//!
//! * `/healthz` — liveness probe, plain `ok`.
//! * `/metrics` — Prometheus text exposition.
//! * `/snapshot` — the full NDJSON dump.
//! * `/trace` — Chrome trace-event JSON of the span timeline and the
//!   exemplar span trees.
//! * `/slo` — declared objectives with burn rates and remaining error
//!   budget.
//!
//! Other methods on these paths get `405`, and unknown paths a `404`
//! that lists the routes. The API server's router falls through to
//! [`route`] for every path it does not own, so both servers answer the
//! telemetry routes with the same code.
//!
//! [`install_from_env`] is the one-liner for binaries: when
//! `RAPID_OBS_ADDR` (or `rapid_obs::set_serve_addr`) names an address,
//! it serves these routes alone through the API server's transport
//! ([`crate::server`]) on one worker, so the sidecar inherits the same
//! header cap, bounded queue, per-request traces, `serve.request` fault
//! site and `catch_unwind`.

use std::net::SocketAddr;
use std::sync::OnceLock;

use crate::admission::ResilienceConfig;
use crate::api;
use crate::http::Request;
use crate::server::{listen, Reply, ServerConfig};

/// The telemetry routes, as a 404 body lists them.
const ROUTES: &str = "/healthz /metrics /snapshot /trace /slo";

/// Answers one telemetry request. `routes` is the route list an unknown
/// path's `404` names.
pub(crate) fn route(request: &Request, routes: &str) -> Reply {
    let snapshot = || rapid_obs::global().snapshot();
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            Reply::new("200 OK", "text/plain; charset=utf-8", "ok\n".to_string())
        }
        ("GET", "/metrics") => Reply::new(
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            snapshot().to_prometheus(),
        ),
        ("GET", "/snapshot") => {
            Reply::new("200 OK", "application/x-ndjson", snapshot().to_ndjson())
        }
        ("GET", "/trace") => Reply::new("200 OK", "application/json", snapshot().to_chrome_trace()),
        ("GET", "/slo") => Reply::new(
            "200 OK",
            "application/json",
            rapid_obs::slo_json(&snapshot()),
        ),
        (_, "/healthz" | "/metrics" | "/snapshot" | "/trace" | "/slo") => method_not_allowed(),
        _ => Reply::new(
            "404 Not Found",
            "application/json",
            api::error_body(&format!("not found; try {routes}")),
        ),
    }
}

/// The `405` for a known path under the wrong method.
pub(crate) fn method_not_allowed() -> Reply {
    Reply::new(
        "405 Method Not Allowed",
        "application/json",
        api::error_body("method not allowed"),
    )
}

/// Starts the telemetry sidecar if `RAPID_OBS_ADDR` (or a programmatic
/// `rapid_obs::set_serve_addr`) names an address. Idempotent: only the
/// first call can start a server; every call returns the bound address
/// if one is live. Bind failures are reported as a `warn` event rather
/// than aborting the host process.
pub fn install_from_env() -> Option<SocketAddr> {
    static INSTALLED: OnceLock<Option<SocketAddr>> = OnceLock::new();
    *INSTALLED.get_or_init(|| {
        let addr = rapid_obs::serve_addr()?;
        let cfg = ServerConfig {
            addr: addr.clone(),
            workers: 1,
            ..ServerConfig::default()
        };
        let served = listen(&cfg, ResilienceConfig::default(), |request, _, _| {
            route(request, ROUTES)
        });
        match served {
            Ok(handle) => {
                let bound = handle.addr();
                rapid_obs::event!(
                    rapid_obs::Level::Info,
                    "obs",
                    "serving {ROUTES} on http://{bound}"
                );
                // Serve for the life of the process.
                // lint:allow(trace-context-no-leak) — deliberate: the sidecar handle must outlive every request
                std::mem::forget(handle);
                Some(bound)
            }
            Err(e) => {
                rapid_obs::event!(
                    rapid_obs::Level::Warn,
                    "obs",
                    "RAPID_OBS_ADDR={addr}: bind failed ({e}); telemetry not served"
                );
                None
            }
        }
    })
}
