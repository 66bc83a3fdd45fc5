//! The benchmark's load generator: one process, one keep-alive
//! connection per thread, never more threads than the caller asks for.
//!
//! [`open_loop`] sends on a fixed schedule whatever the server does:
//! request `i` is due `i / rate` seconds after the start, a free
//! connection takes the next due request, and latency is timed from the
//! due time, so a stall charges every request queued behind it. How late
//! the generator sent each request is recorded beside it.
//! [`closed_loop`] sends each connection's next request only when its
//! previous answer arrived.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rapid_serve::Client;

use crate::stats::Tally;
use crate::trace;

/// One request to send.
#[derive(Debug, Clone)]
pub struct Req {
    /// Route, such as `/rerank`.
    pub path: &'static str,
    /// JSON body.
    pub body: String,
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// A 2xx answer.
    Ok,
    /// A `429`/`503` shed.
    Shed,
    /// Any other status.
    Status(u16),
    /// Connect, write, read or framing failure.
    Transport,
}

/// One finished request.
#[derive(Debug, Clone)]
pub struct Done {
    /// Index into the request list.
    pub idx: usize,
    /// How late the generator sent it, ms (0 in a closed loop).
    pub late_ms: f64,
    /// Latency from the due time, ms (from the send in a closed loop).
    pub latency_ms: f64,
    /// Latency from the send, ms.
    pub send_ms: f64,
    /// How it ended.
    pub outcome: Outcome,
    /// The answer body of a 2xx.
    pub body: Option<String>,
}

/// Counts the transport-level outcomes of `done` (checks are counted by
/// the caller).
pub fn tally(done: &[Done]) -> Tally {
    let mut t = Tally {
        attempted: done.len() as u64,
        ..Tally::default()
    };
    for d in done {
        match d.outcome {
            Outcome::Ok => {}
            Outcome::Shed => t.shed += 1,
            Outcome::Status(_) => t.non_2xx += 1,
            Outcome::Transport => t.transport += 1,
        }
    }
    t
}

/// The budget every request carries (`X-Rapid-Deadline-Ms`). The
/// server's 50 ms default sheds or degrades a request that a stall of the
/// host delays past it; on a shared virtual machine such stalls come
/// often enough to fail a run. Latency is measured either way.
const DEADLINE_MS: u64 = 1000;

fn send(client: &mut Client, req: &Req) -> (Outcome, Option<String>) {
    let _span = trace::span("bench.request");
    match client.post_with_deadline(req.path, &req.body, DEADLINE_MS) {
        Ok(r) if (200..300).contains(&r.status) => (Outcome::Ok, Some(r.body)),
        Ok(r) if r.is_shed() => (Outcome::Shed, None),
        Ok(r) => (Outcome::Status(r.status), None),
        Err(_) => (Outcome::Transport, None),
    }
}

/// Sends `reqs` in order at `rate` per second over `conns` connections
/// (one thread each), timing each from its due time. Returns the
/// finished requests in due order and the time from the first due time
/// to the last answer.
pub fn open_loop(addr: SocketAddr, conns: usize, rate: f64, reqs: &[Req]) -> (Vec<Done>, Duration) {
    assert!(rate > 0.0, "open loop needs a positive rate");
    let next = AtomicUsize::new(0);
    // A short lead so every connection is ready before the first due time.
    let start = Instant::now() + Duration::from_millis(20);
    let period = Duration::from_secs_f64(1.0 / rate);
    let mut all: Vec<Done> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..conns.max(1))
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut client = Client::new(addr);
                    let mut out = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = reqs.get(idx) else { break };
                        let due = start + period * idx as u32;
                        wait_until(due);
                        let sent = Instant::now();
                        let (outcome, body) = send(&mut client, req);
                        let end = Instant::now();
                        out.push(Done {
                            idx,
                            late_ms: ms(sent.saturating_duration_since(due)),
                            latency_ms: ms(end.saturating_duration_since(due)),
                            send_ms: ms(end - sent),
                            outcome,
                            body,
                        });
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("load generator thread panicked"))
            .collect()
    });
    let wall = start.elapsed();
    all.sort_by_key(|d| d.idx);
    (all, wall)
}

/// Sends `reqs` over `conns` connections, each sending its next request
/// when the previous answer arrives. Returns the finished requests in
/// order and the wall time of the whole loop.
pub fn closed_loop(addr: SocketAddr, conns: usize, reqs: &[Req]) -> (Vec<Done>, Duration) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut all: Vec<Done> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..conns.max(1))
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut client = Client::new(addr);
                    let mut out = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = reqs.get(idx) else { break };
                        let sent = Instant::now();
                        let (outcome, body) = send(&mut client, req);
                        let lat = ms(sent.elapsed());
                        out.push(Done {
                            idx,
                            late_ms: 0.0,
                            latency_ms: lat,
                            send_ms: lat,
                            outcome,
                            body,
                        });
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("load generator thread panicked"))
            .collect()
    });
    let wall = start.elapsed();
    all.sort_by_key(|d| d.idx);
    (all, wall)
}

/// Yields until `due` instead of sleeping. On a virtual machine a core
/// that halts while idle is slow and erratic to wake, which would add
/// host noise to every send; a yielding thread keeps its core awake,
/// while any runnable server thread still gets the core first.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// Milliseconds in `d`.
fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
