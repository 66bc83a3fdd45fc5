//! End-to-end API tests against a live server: happy paths, hostile
//! HTTP input (oversized body, truncated JSON, unknown users, replayed
//! events), a raw-bytes fuzz pass, and the telemetry-only sidecar that
//! runs on the same transport.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{OnceLock, RwLock, RwLockReadGuard};

use proptest::prelude::*;
use rapid_serve::{start, AppState, Client, ServeConfig, ServeModel, ServerConfig};

fn tiny_config() -> ServeConfig {
    ServeConfig {
        num_users: 30,
        num_items: 120,
        epochs: 1,
        ..ServeConfig::default()
    }
}

/// The `serve.request` fault plan is process-global, so a test that
/// arms it takes this lock exclusively; every other test holds it
/// shared while it talks to a server.
static FAULTS: RwLock<()> = RwLock::new(());

fn shared() -> RwLockReadGuard<'static, ()> {
    FAULTS.read().unwrap_or_else(|p| p.into_inner())
}

/// One shared server for the whole test binary (training the artifact
/// and booting the model dominates the cost).
fn server_addr() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let cfg = tiny_config();
        let dir = std::env::temp_dir().join(format!("rapid-serve-api-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("serve.ckpt");
        rapid_serve::train_artifact(&cfg, &ckpt).unwrap();
        let model = ServeModel::boot(&cfg, &ckpt).unwrap();
        let handle = start(
            std::sync::Arc::new(AppState::new(model)),
            &ServerConfig::default(),
        )
        .unwrap();
        let addr = handle.addr();
        std::mem::forget(handle); // serve for the life of the test binary
        addr
    })
}

#[test]
fn healthz_metrics_and_snapshot_respond() {
    let _live = shared();
    let mut c = Client::new(server_addr());
    let health = c.get("/healthz").unwrap();
    assert_eq!((health.status, health.body.as_str()), (200, "ok\n"));
    let metrics = c.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let snapshot = c.get("/snapshot").unwrap();
    assert_eq!(snapshot.status, 200);
    assert!(
        snapshot.body.contains("\"type\":\"meta\""),
        "snapshot must be registry NDJSON"
    );
    let trace = c.get("/trace").unwrap();
    assert_eq!(trace.status, 200);
    assert!(trace.body.contains("\"traceEvents\""), "{}", trace.body);
}

#[test]
fn events_then_rerank_round_trip() {
    let _live = shared();
    let mut c = Client::new(server_addr());
    let r = c
        .post(
            "/events",
            r#"{"events": [{"user": 9001, "item": 3, "click": true, "seq": 1},
                           {"user": 9002, "item": 4, "click": false, "seq": 1}]}"#,
        )
        .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    let v = serde_json::parse_value(&r.body).unwrap();
    assert_eq!(v.field("accepted").unwrap().as_u64().unwrap(), 2);
    assert_eq!(v.field("replayed").unwrap().as_u64().unwrap(), 0);

    let r = c.post("/rerank", r#"{"user": 9001}"#).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    let v = serde_json::parse_value(&r.body).unwrap();
    let items = v.field("items").unwrap().as_array().unwrap();
    assert_eq!(items.len(), tiny_config().list_len);
    let timings = v.field("timings_ms").unwrap();
    for stage in ["rank", "prepare", "rerank"] {
        assert!(timings.field(stage).unwrap().as_f64().unwrap() >= 0.0);
    }
}

#[test]
fn tiny_client_deadlines_degrade_per_request_without_tripping_the_breaker() {
    let _live = shared();
    let mut c = Client::new(server_addr());
    // A 3 ms budget can never afford the full tier (FULL_FLOOR_MS = 5),
    // so every one of these steps down the ladder — but a client-chosen
    // budget must not count as a model-path failure, or one stingy
    // client would trip the breaker into passthrough for everyone
    // (default threshold 5). A budget that expires entirely under CI
    // scheduling sheds with 503, which also must not touch the breaker.
    let mut degraded = 0;
    for _ in 0..12 {
        let r = c
            .post_with_deadline("/rerank", r#"{"user": 42}"#, 3)
            .unwrap();
        assert!(r.status == 200 || r.status == 503, "{} {}", r.status, r.body);
        if r.status == 200 {
            let v = serde_json::parse_value(&r.body).unwrap();
            assert_ne!(
                v.field("tier").unwrap().as_str().unwrap(),
                "full",
                "a 3 ms budget cannot afford the full tier"
            );
            degraded += 1;
        }
    }
    assert!(degraded > 0, "every tiny-budget request shed; none degraded");
    let slo = c.get("/slo").unwrap();
    assert_eq!(slo.status, 200);
    let v = serde_json::parse_value(&slo.body).unwrap();
    let resilience = v.field("resilience").unwrap();
    assert_eq!(
        resilience.field("breaker_state").unwrap().as_str().unwrap(),
        "closed",
        "client-side tiny deadlines must not open the breaker"
    );

    // A generous budget immediately serves the full tier again.
    let r = c
        .post_with_deadline("/rerank", r#"{"user": 42}"#, 10_000)
        .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
}

#[test]
fn invalid_k_is_a_400_before_the_model_path() {
    let _live = shared();
    let mut c = Client::new(server_addr());
    let r = c.post("/rerank", r#"{"user": 1, "k": 0}"#).unwrap();
    assert_eq!(r.status, 400, "{}", r.body);
    let r = c.post("/rerank", r#"{"user": 1, "k": 100000}"#).unwrap();
    assert_eq!(r.status, 400, "{}", r.body);
    // The service keeps serving valid requests on the same connection.
    let r = c.post("/rerank", r#"{"user": 1}"#).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
}

#[test]
fn replayed_events_are_detected_not_reapplied() {
    let _live = shared();
    let mut c = Client::new(server_addr());
    let body = r#"{"user": 7700, "item": 5, "click": true, "seq": 10}"#;
    let first = c.post("/events", body).unwrap();
    let v = serde_json::parse_value(&first.body).unwrap();
    assert_eq!(v.field("accepted").unwrap().as_u64().unwrap(), 1);
    let second = c.post("/events", body).unwrap();
    assert_eq!(second.status, 200);
    let v = serde_json::parse_value(&second.body).unwrap();
    assert_eq!(v.field("accepted").unwrap().as_u64().unwrap(), 0);
    assert_eq!(v.field("replayed").unwrap().as_u64().unwrap(), 1);
}

#[test]
fn unknown_user_is_a_cold_start_200() {
    let _live = shared();
    let mut c = Client::new(server_addr());
    let r = c
        .post("/rerank", r#"{"user": 18446744073709551615}"#)
        .unwrap();
    assert_eq!(r.status, 200, "unknown users cold-start, not error");
    let v = serde_json::parse_value(&r.body).unwrap();
    assert!(!v.field("items").unwrap().as_array().unwrap().is_empty());
}

#[test]
fn rerank_determinism_over_http() {
    let _live = shared();
    let mut c = Client::new(server_addr());
    let a = c.post("/rerank", r#"{"user": 31337}"#).unwrap();
    let b = c.post("/rerank", r#"{"user": 31337}"#).unwrap();
    let items = |body: &str| {
        let v = serde_json::parse_value(body).unwrap();
        v.field("items")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|x| x.as_u64().unwrap())
            .collect::<Vec<_>>()
    };
    assert_eq!(items(&a.body), items(&b.body));
}

#[test]
fn truncated_json_and_bad_fields_get_400() {
    let _live = shared();
    let mut c = Client::new(server_addr());
    for body in [
        r#"{"user": 1, "ite"#,
        r#"{"item": 2}"#,
        r#"{"user": 1, "item": 2, "click": "yes"}"#,
        r#"{"events": []}"#,
        "not json at all",
    ] {
        let r = c.post("/events", body).unwrap();
        assert_eq!(r.status, 400, "{body:?} → {}", r.body);
        assert!(r.body.contains("error"), "{}", r.body);
    }
    let r = c.post("/rerank", r#"{"k": 5}"#).unwrap();
    assert_eq!(r.status, 400);
    let r = c.post("/rerank", r#"{"user": 1, "k": 0}"#).unwrap();
    assert_eq!(r.status, 400);
    let r = c.post("/rerank", r#"{"user": 1, "k": 10000}"#).unwrap();
    assert_eq!(r.status, 400);
    assert!(r.body.contains("maximum"), "{}", r.body);
}

#[test]
fn unknown_paths_and_wrong_methods_are_refused() {
    let _live = shared();
    let mut c = Client::new(server_addr());
    let missing = c.get("/nope").unwrap();
    assert_eq!(missing.status, 404);
    for route in ["/events", "/rerank", "/aggregates", "/trace", "/slo"] {
        assert!(
            missing.body.contains(route),
            "404 must list {route}: {}",
            missing.body
        );
    }
    assert_eq!(c.get("/rerank").unwrap().status, 405);
    assert_eq!(c.post("/healthz", "{}").unwrap().status, 405);
    assert_eq!(c.post("/slo", "{}").unwrap().status, 405);
    assert_eq!(c.post("/trace", "{}").unwrap().status, 405);
    assert_eq!(c.post("/aggregates", "{}").unwrap().status, 405);
}

#[test]
fn responses_carry_a_fresh_trace_id_per_request() {
    let _live = shared();
    let mut c = Client::new(server_addr());
    let a = c.post("/rerank", r#"{"user": 4242}"#).unwrap();
    let b = c.post("/rerank", r#"{"user": 4242}"#).unwrap();
    let a_id = a.trace_id.expect("rerank response must carry a trace id");
    let b_id = b.trace_id.expect("rerank response must carry a trace id");
    assert_eq!(a_id.len(), 16, "trace id is 16 hex chars: {a_id:?}");
    assert!(a_id.chars().all(|c| c.is_ascii_hexdigit()), "{a_id:?}");
    assert_ne!(a_id, b_id, "each request mints its own trace");
    // Error responses are traced too.
    let bad = c.post("/rerank", "not json").unwrap();
    assert_eq!(bad.status, 400);
    assert!(bad.trace_id.is_some(), "4xx responses still stamp the id");
}

#[test]
fn slo_route_reports_the_rerank_objectives() {
    let _live = shared();
    let mut c = Client::new(server_addr());
    // Put at least one request on the SLO substrate first.
    c.post("/rerank", r#"{"user": 606}"#).unwrap();
    let r = c.get("/slo").unwrap();
    assert_eq!(r.status, 200);
    let v = serde_json::parse_value(&r.body).unwrap();
    let slos = v.field("slos").unwrap().as_array().unwrap();
    let names: Vec<String> = slos
        .iter()
        .map(|s| {
            s.field("name")
                .unwrap()
                .as_str()
                .unwrap()
                .trim_matches('"')
                .to_string()
        })
        .collect();
    assert!(
        names.iter().any(|n| n == "rerank_latency"),
        "missing rerank_latency in {names:?}"
    );
    assert!(
        names.iter().any(|n| n == "rerank_availability"),
        "missing rerank_availability in {names:?}"
    );
    let latency = slos
        .iter()
        .find(|s| {
            s.field("name")
                .unwrap()
                .as_str()
                .unwrap()
                .contains("rerank_latency")
        })
        .unwrap();
    assert!(latency.field("total").unwrap().as_u64().unwrap() >= 1);
    let remaining = latency.field("budget_remaining").unwrap().as_f64().unwrap();
    assert!(remaining.is_finite());
    assert!(
        !latency
            .field("windows")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty(),
        "burn-rate windows must be reported"
    );
}

#[test]
fn oversized_body_is_rejected_with_413() {
    let _live = shared();
    // Raw socket: declare a body far over the server cap. The refusal
    // must arrive *without* the server reading 2 MiB first.
    let mut s = TcpStream::connect(server_addr()).unwrap();
    s.write_all(b"POST /events HTTP/1.1\r\nContent-Length: 2097152\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    let _ = s.read_to_string(&mut response);
    assert!(response.starts_with("HTTP/1.1 413"), "{response}");
}

#[test]
fn truncated_body_is_rejected_with_400() {
    let _live = shared();
    let mut s = TcpStream::connect(server_addr()).unwrap();
    s.write_all(b"POST /events HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"user\":")
        .unwrap();
    // Half-close: the server sees EOF before the declared 50 bytes.
    let _ = s.shutdown(std::net::Shutdown::Write);
    let mut response = String::new();
    let _ = s.read_to_string(&mut response);
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
}

#[test]
fn aggregates_expose_serve_state_as_json() {
    let _live = shared();
    let mut c = Client::new(server_addr());
    // Make sure at least one event and one rerank happened first.
    c.post("/events", r#"{"user": 555, "item": 1}"#).unwrap();
    c.post("/rerank", r#"{"user": 555}"#).unwrap();
    let r = c.get("/aggregates").unwrap();
    assert_eq!(r.status, 200);
    let v = serde_json::parse_value(&r.body).unwrap();
    assert!(v.field("users").unwrap().as_u64().unwrap() >= 1);
    assert!(
        v.field("events")
            .unwrap()
            .field("accepted")
            .unwrap()
            .as_u64()
            .unwrap()
            >= 1
    );
    let latency = v.field("rerank_latency").unwrap();
    assert!(latency.field("count").unwrap().as_u64().unwrap() >= 1);
    assert!(latency.field("p99_ms").unwrap().as_f64().unwrap() >= 0.0);
    assert!(v.field("model_epochs_done").unwrap().as_u64().unwrap() >= 1);
    // Per-endpoint HTTP counters are structured, not Prometheus text.
    let http = v.field("http").unwrap();
    assert!(http.field("rerank.200").unwrap().as_u64().unwrap() >= 1);
}

/// The `RAPID_OBS_ADDR` sidecar: the telemetry routes alone, through
/// the API server's transport and its hardening.
#[test]
fn telemetry_sidecar_serves_only_the_telemetry_routes() {
    let _exclusive = FAULTS.write().unwrap_or_else(|p| p.into_inner());
    let reg = rapid_obs::global();
    reg.counter_add("sidecar.test", 3);
    reg.record_span_timed("sidecar/span", std::time::Duration::from_micros(42), 0, 1);
    reg.declare_slo(rapid_obs::SloDef {
        name: "sidecar_latency".to_string(),
        path: "req/sidecar".to_string(),
        threshold_ms: 50.0,
        objective: 0.99,
        windows_s: vec![60],
    });
    rapid_obs::set_serve_addr(Some("127.0.0.1:0".to_string()));
    let addr = rapid_serve::telemetry::install_from_env().expect("the sidecar binds");
    assert_eq!(
        rapid_serve::telemetry::install_from_env(),
        Some(addr),
        "starts once"
    );
    // A fresh connection per request, as curl and scrapers do: the one
    // worker is then never parked on an idle keep-alive connection.
    let get = |path: &str| Client::new(addr).get(path);

    let health = get("/healthz").unwrap();
    assert_eq!((health.status, health.body.as_str()), (200, "ok\n"));
    let metrics = get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    assert!(
        metrics
            .body
            .contains("rapid_counter_total{name=\"sidecar.test\"} 3"),
        "{}",
        metrics.body
    );
    let snapshot = get("/snapshot").unwrap();
    assert_eq!(snapshot.status, 200);
    assert!(
        snapshot.body.contains("\"type\":\"meta\""),
        "{}",
        snapshot.body
    );
    let trace = get("/trace").unwrap();
    assert_eq!(trace.status, 200);
    assert!(trace.body.contains("\"traceEvents\""), "{}", trace.body);
    assert!(trace.body.contains("sidecar/span"), "{}", trace.body);
    let slo = get("/slo").unwrap();
    assert_eq!(slo.status, 200);
    assert!(serde_json::parse_value(&slo.body).is_ok(), "{}", slo.body);
    assert!(
        slo.body.contains("\"name\":\"sidecar_latency\""),
        "{}",
        slo.body
    );

    // Query strings still route; the API routes are not served here.
    assert_eq!(get("/healthz?probe=1").unwrap().status, 200);
    assert_eq!(
        Client::new(addr)
            .post("/rerank", r#"{"user": 1}"#)
            .unwrap()
            .status,
        404
    );
    assert_eq!(
        Client::new(addr).post("/metrics", "{}").unwrap().status,
        405
    );
    let missing = get("/aggregates").unwrap();
    assert_eq!(missing.status, 404);
    for route in ["/healthz", "/metrics", "/snapshot", "/trace", "/slo"] {
        assert!(
            missing.body.contains(route),
            "404 must list {route}: {}",
            missing.body
        );
    }

    // Oversized headers get a 431: exactly one byte over the cap and no
    // terminator, so the server has read every byte when it answers.
    let mut raw = b"GET /healthz HTTP/1.1\r\nX-Pad: ".to_vec();
    raw.resize(rapid_serve::http::MAX_HEADER_BYTES + 1, b'a');
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&raw).unwrap();
    let mut response = String::new();
    let _ = s.read_to_string(&mut response);
    assert!(response.starts_with("HTTP/1.1 431"), "{response}");

    // The `serve.request` fault site: io-error drops the connection,
    // panic answers 500.
    rapid_faults::install(rapid_faults::FaultPlan::parse("serve.request=io-error").unwrap());
    let dropped = get("/healthz");
    rapid_faults::install(rapid_faults::FaultPlan::parse("serve.request=panic").unwrap());
    let panicked = get("/healthz");
    rapid_faults::clear();
    assert!(dropped.is_err(), "io-error must drop: {dropped:?}");
    assert_eq!(panicked.unwrap().status, 500);

    // The server survived all of it.
    assert_eq!(get("/healthz").unwrap().status, 200);
}

proptest! {
    /// Arbitrary bytes thrown at the socket must never take the server
    /// down: after each volley, a fresh health check still answers.
    #[test]
    fn hostile_raw_bytes_never_kill_the_server(
        raw in proptest::collection::vec(0u32..256, 0..600),
    ) {
        let _live = shared();
        let addr = server_addr();
        let bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
        if let Ok(mut s) = TcpStream::connect(addr) {
            let _ = s.write_all(&bytes);
            // Terminate the frame so malformed volleys fail fast
            // instead of waiting out the server's read timeout.
            let _ = s.write_all(b"\r\n\r\n");
            let _ = s.shutdown(std::net::Shutdown::Write);
            let mut sink = String::new();
            let _ = s.read_to_string(&mut sink);
        }
        let health = Client::new(addr).get("/healthz");
        prop_assert!(matches!(health, Ok(r) if r.status == 200));
    }
}
