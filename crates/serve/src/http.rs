//! Minimal, hardened HTTP/1.1 framing for the request path.
//!
//! The parser supports exactly what the service and its load harness
//! need: a request line, headers up to [`MAX_HEADER_BYTES`], an
//! optional `Content-Length` body up to a caller-supplied cap, and
//! keep-alive connections (the load generator holds one connection per
//! client worker and pipelines requests sequentially over it). It is a
//! byte scanner, not a spec-complete parser — chunked encoding,
//! continuation lines, and HTTP/2 are all rejected as malformed — but
//! hostile input must never panic a worker: every malformed shape maps
//! to a typed [`ReadOutcome`] the server turns into a 4xx or a closed
//! connection.
//!
//! Framing state lives in [`ConnBuf`], which carries bytes already read
//! past the end of one request into the next (pipelined clients), so
//! `read_request` never loses data between keep-alive requests.

use std::io::Read;
use std::net::TcpStream;

/// Hard cap on request-line + header bytes (`431` beyond it): no
/// legitimate client of the API or telemetry routes sends 8 KiB of
/// headers, and the cap bounds hostile buffering.
pub const MAX_HEADER_BYTES: usize = 8 * 1024;

/// One parsed request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, `POST`, …), uppercased by the client.
    pub method: String,
    /// Path with any query string stripped.
    pub path: String,
    /// Raw body bytes (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
    /// The client's `X-Rapid-Deadline-Ms` budget, if it sent a valid
    /// one (unparsable values are ignored, not rejected: a deadline is
    /// an optimization hint, never a reason to 400).
    pub deadline_ms: Option<u64>,
    /// The client's `X-Rapid-Admin-Token`, checked by admin routes when
    /// the server was booted with one.
    pub admin_token: Option<String>,
}

/// What one framing attempt produced.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request frame.
    Request(Request),
    /// The peer closed (or timed out) between requests — normal end of
    /// a keep-alive connection; nothing to answer.
    Closed,
    /// Headers exceeded [`MAX_HEADER_BYTES`] → `431`.
    HeadersTooLarge,
    /// Declared `Content-Length` exceeded the server's body cap → `413`.
    BodyTooLarge,
    /// Structurally malformed framing (bad request line, unparsable
    /// `Content-Length`, body shorter than declared) → `400`.
    Malformed(&'static str),
}

/// Per-connection carry-over buffer for pipelined keep-alive clients.
#[derive(Debug, Default)]
pub struct ConnBuf {
    buf: Vec<u8>,
}

impl ConnBuf {
    /// An empty carry-over buffer for a fresh connection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads one request frame from `stream`, using and refilling the
    /// carry-over buffer. `max_body` caps the declared body size.
    pub fn read_request(&mut self, stream: &mut TcpStream, max_body: usize) -> ReadOutcome {
        // Phase 1: accumulate until the header terminator.
        let header_end = loop {
            if let Some(pos) = find_header_end(&self.buf) {
                break pos;
            }
            if self.buf.len() > MAX_HEADER_BYTES {
                return ReadOutcome::HeadersTooLarge;
            }
            match fill(stream, &mut self.buf) {
                Some(0) => return ReadOutcome::Closed,
                Some(_) => {}
                None => return ReadOutcome::Closed,
            }
        };
        if header_end > MAX_HEADER_BYTES {
            return ReadOutcome::HeadersTooLarge;
        }

        let head = String::from_utf8_lossy(&self.buf[..header_end]).into_owned();
        let mut lines = head.split("\r\n");
        let Some(request_line) = lines.next() else {
            return ReadOutcome::Malformed("empty request line");
        };
        let mut parts = request_line.split_whitespace();
        let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
            return ReadOutcome::Malformed("bad request line");
        };
        let method = method.to_string();
        let path = target.split('?').next().unwrap_or(target).to_string();

        let mut content_length = 0usize;
        let mut keep_alive = true; // HTTP/1.1 default
        let mut deadline_ms = None;
        let mut admin_token = None;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                match value.parse::<usize>() {
                    Ok(n) => content_length = n,
                    Err(_) => return ReadOutcome::Malformed("unparsable Content-Length"),
                }
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = !value.eq_ignore_ascii_case("close");
            } else if name.eq_ignore_ascii_case("x-rapid-deadline-ms") {
                deadline_ms = value.parse::<u64>().ok();
            } else if name.eq_ignore_ascii_case("x-rapid-admin-token") {
                admin_token = Some(value.to_string());
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                // Chunked bodies are out of scope; reject rather than
                // misframe the connection.
                return ReadOutcome::Malformed("transfer-encoding unsupported");
            }
        }
        if content_length > max_body {
            return ReadOutcome::BodyTooLarge;
        }

        // Phase 2: ensure the declared body is buffered.
        let body_start = header_end + 4;
        while self.buf.len() < body_start + content_length {
            match fill(stream, &mut self.buf) {
                Some(0) | None => return ReadOutcome::Malformed("body shorter than declared"),
                Some(_) => {}
            }
        }
        let body = self.buf[body_start..body_start + content_length].to_vec();
        // Keep any pipelined bytes for the next request on this
        // connection.
        self.buf.drain(..body_start + content_length);

        ReadOutcome::Request(Request {
            method,
            path,
            body,
            keep_alive,
            deadline_ms,
            admin_token,
        })
    }
}

/// Index of the `\r\n\r\n` header terminator, if buffered.
fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Reads one chunk from the stream into `buf`. `Some(0)` is EOF; `None`
/// is an I/O error or timeout (both are treated as a dead peer).
fn fill(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Option<usize> {
    let mut chunk = [0u8; 4096];
    match stream.read(&mut chunk) {
        Ok(n) => {
            buf.extend_from_slice(&chunk[..n]);
            Some(n)
        }
        Err(_) => None,
    }
}

/// Renders a full HTTP/1.1 response. `keep_alive` controls the
/// `Connection` header; the server closes after writing otherwise.
pub fn response_bytes(status: &str, content_type: &str, body: &str, keep_alive: bool) -> Vec<u8> {
    response_bytes_with_headers(status, content_type, body, keep_alive, &[])
}

/// [`response_bytes`] with extra response headers appended after the
/// standard framing headers. Header names and values must already be
/// token/field-safe; the serving path only passes fixed names and hex
/// trace ids.
pub fn response_bytes_with_headers(
    status: &str,
    content_type: &str,
    body: &str,
    keep_alive: bool,
    extra: &[(&str, &str)],
) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in extra {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    head.push_str(body);
    head.into_bytes()
}

/// The numeric status code of a `"200 OK"`-style status line (0 when
/// the line is malformed — callers only bucket by class).
pub fn status_code(status: &str) -> u16 {
    status
        .split_whitespace()
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;

    /// Runs the parser against raw bytes written from a peer socket.
    fn parse_bytes(raw: &[u8], max_body: usize) -> ReadOutcome {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        server_side
            .set_read_timeout(Some(std::time::Duration::from_millis(500)))
            .unwrap();
        client.write_all(raw).unwrap();
        drop(client); // EOF after the payload
        ConnBuf::new().read_request(&mut server_side, max_body)
    }

    #[test]
    fn parses_a_post_with_body() {
        let raw = b"POST /events HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        match parse_bytes(raw, 1024) {
            ReadOutcome::Request(r) => {
                assert_eq!(r.method, "POST");
                assert_eq!(r.path, "/events");
                assert_eq!(r.body, b"abcd");
                assert!(r.keep_alive);
                assert_eq!(r.deadline_ms, None);
            }
            other => panic!("expected request, got {other:?}"),
        }
    }

    #[test]
    fn deadline_header_parses_and_garbage_is_ignored() {
        let raw = b"GET /rerank HTTP/1.1\r\nX-Rapid-Deadline-Ms: 25\r\n\r\n";
        match parse_bytes(raw, 1024) {
            ReadOutcome::Request(r) => assert_eq!(r.deadline_ms, Some(25)),
            other => panic!("expected request, got {other:?}"),
        }
        let raw = b"GET /rerank HTTP/1.1\r\nx-rapid-deadline-ms: soon\r\n\r\n";
        match parse_bytes(raw, 1024) {
            ReadOutcome::Request(r) => {
                assert_eq!(r.deadline_ms, None, "garbage hints are ignored, not 400s");
            }
            other => panic!("expected request, got {other:?}"),
        }
    }

    #[test]
    fn strips_query_strings_and_honors_connection_close() {
        let raw = b"GET /aggregates?probe=1 HTTP/1.1\r\nConnection: close\r\n\r\n";
        match parse_bytes(raw, 1024) {
            ReadOutcome::Request(r) => {
                assert_eq!(r.path, "/aggregates");
                assert!(!r.keep_alive);
            }
            other => panic!("expected request, got {other:?}"),
        }
    }

    #[test]
    fn pipelined_requests_are_both_framed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        server_side
            .set_read_timeout(Some(std::time::Duration::from_millis(500)))
            .unwrap();
        client
            .write_all(b"POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /b HTTP/1.1\r\n\r\n")
            .unwrap();
        let mut conn = ConnBuf::new();
        match conn.read_request(&mut server_side, 1024) {
            ReadOutcome::Request(r) => {
                assert_eq!(r.path, "/a");
                assert_eq!(r.body, b"hi");
            }
            other => panic!("{other:?}"),
        }
        match conn.read_request(&mut server_side, 1024) {
            ReadOutcome::Request(r) => {
                assert_eq!(r.path, "/b");
                assert!(r.body.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn oversized_declared_body_is_rejected_without_reading_it() {
        let raw = b"POST /events HTTP/1.1\r\nContent-Length: 999999\r\n\r\n";
        assert!(matches!(parse_bytes(raw, 1024), ReadOutcome::BodyTooLarge));
    }

    #[test]
    fn truncated_body_is_malformed() {
        let raw = b"POST /events HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert!(matches!(
            parse_bytes(raw, 1024),
            ReadOutcome::Malformed("body shorter than declared")
        ));
    }

    #[test]
    fn oversized_headers_are_rejected() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        while raw.len() <= MAX_HEADER_BYTES + 1024 {
            raw.extend_from_slice(b"X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        raw.extend_from_slice(b"\r\n");
        assert!(matches!(
            parse_bytes(&raw, 1024),
            ReadOutcome::HeadersTooLarge
        ));
    }

    #[test]
    fn bad_content_length_and_chunked_are_malformed() {
        assert!(matches!(
            parse_bytes(b"POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 1024),
            ReadOutcome::Malformed("unparsable Content-Length")
        ));
        assert!(matches!(
            parse_bytes(
                b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                1024
            ),
            ReadOutcome::Malformed("transfer-encoding unsupported")
        ));
    }

    #[test]
    fn response_bytes_frame_correctly() {
        let bytes = response_bytes("200 OK", "application/json", "{}", true);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
        assert_eq!(status_code("404 Not Found"), 404);
        assert_eq!(status_code(""), 0);
    }

    #[test]
    fn extra_headers_land_between_framing_and_body() {
        let bytes = response_bytes_with_headers(
            "200 OK",
            "application/json",
            "{}",
            false,
            &[("X-Rapid-Trace-Id", "00000000deadbeef")],
        );
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.contains("Connection: close\r\n"));
        assert!(
            text.contains("\r\nX-Rapid-Trace-Id: 00000000deadbeef\r\n"),
            "{text}"
        );
        assert!(text.ends_with("\r\n\r\n{}"));
        // The header block still terminates with exactly one blank line.
        assert_eq!(text.matches("\r\n\r\n").count(), 1);
    }
}
