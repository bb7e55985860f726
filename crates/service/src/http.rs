//! A deliberately tiny, hardened HTTP/1.1 layer over `std` I/O — just
//! enough for the service's endpoints, with hard limits everywhere.
//!
//! The container this repository builds in has no async runtime or HTTP
//! crates, so the daemon speaks a strict subset of HTTP/1.1 itself:
//! request line + headers (8 KiB cap), `Content-Length` bodies (64 KiB
//! cap), persistent connections by default, `Connection: close` honored.
//! Anything outside the subset gets a *typed* rejection — `400` for
//! malformed bytes, `413` for an oversized body, `431` for oversized
//! headers, `408` when a peer trickles a request past the read budget —
//! and the connection is closed afterwards, so a malformed or malicious
//! peer can never wedge a worker or desynchronize keep-alive framing.
//!
//! The parser is generic over [`BufRead`] and works on raw bytes (no
//! UTF-8 assumptions about the wire), which is what lets the fuzz suite
//! in `tests/http_fuzz.rs` drive it with adversarial in-memory streams:
//! torn reads at every byte boundary, random garbage, pathological
//! `Content-Length` values, pipelined requests.
//!
//! Slowloris guard: socket reads are configured with a short per-syscall
//! timeout (a "tick") by the connection worker; [`read_request`] turns a
//! tick that fires *before* any request byte into [`ReadOutcome::Idle`]
//! (keep-alive patience is the caller's policy) and a tick that fires
//! *mid-request* into a budget check — once the total time since the
//! first request byte exceeds `budget`, the read is abandoned with a
//! typed `408`.

use std::io::{BufRead, ErrorKind, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Cap on the request line plus headers.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Cap on a request body.
pub const MAX_BODY_BYTES: usize = 64 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method.
    pub method: String,
    /// Path as sent (query strings are not supported and left attached).
    pub path: String,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// `true` when the peer asked to close after this exchange.
    pub close: bool,
}

/// Why a read did not produce a request.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A well-formed request.
    Ok(Request),
    /// The peer closed (or the transport failed) between requests, or the
    /// caller's `stop` fired mid-request; there is nobody to answer.
    Closed,
    /// The read timed out before the first byte of a new request arrived.
    /// Keep-alive idling is the caller's policy, not the parser's.
    Idle,
    /// The bytes were not an acceptable request; the caller should write
    /// the typed status and close the connection. The kinds mirror
    /// [`crate::ErrorBody`]: `bad_request` (400), `request_timeout`
    /// (408), `payload_too_large` (413), `headers_too_large` (431).
    Reject {
        /// HTTP status to answer with (400, 408, 413, or 431).
        status: u16,
        /// Stable machine-readable error kind.
        kind: &'static str,
        /// Human-readable context.
        message: &'static str,
    },
}

impl ReadOutcome {
    fn bad_request(message: &'static str) -> ReadOutcome {
        ReadOutcome::Reject {
            status: 400,
            kind: "bad_request",
            message,
        }
    }

    fn timeout(message: &'static str) -> ReadOutcome {
        ReadOutcome::Reject {
            status: 408,
            kind: "request_timeout",
            message,
        }
    }
}

/// How one line read ended.
enum LineEnd {
    /// A full line (terminator included) is in the buffer.
    Line,
    /// Clean EOF before a terminator.
    Eof,
    /// The line exceeded the cap; reading stopped mid-line.
    TooLong,
}

/// `true` for the error kinds a timed-out blocking-socket read produces.
fn is_wait(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Appends one `\n`-terminated line (terminator included) to `buf`,
/// never holding more than `max + 1` bytes. Bytes are consumed from the
/// reader as they are copied, so a torn read resumes exactly where it
/// left off — callers retry with the same `buf` after a wait error.
fn read_line_limited<R: BufRead>(
    reader: &mut R,
    buf: &mut Vec<u8>,
    max: usize,
) -> std::io::Result<LineEnd> {
    loop {
        let available = match reader.fill_buf() {
            Ok(available) => available,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            return Ok(LineEnd::Eof);
        }
        if let Some(pos) = available.iter().position(|&b| b == b'\n') {
            let take = (pos + 1).min(max.saturating_sub(buf.len()) + 1);
            buf.extend_from_slice(&available[..take]);
            reader.consume(pos + 1);
            return Ok(if buf.len() > max {
                LineEnd::TooLong
            } else {
                LineEnd::Line
            });
        }
        let room = max.saturating_sub(buf.len()) + 1;
        let take = available.len().min(room);
        buf.extend_from_slice(&available[..take]);
        let consumed = available.len();
        reader.consume(consumed);
        if buf.len() > max {
            return Ok(LineEnd::TooLong);
        }
    }
}

/// Strict `Content-Length` parse: ASCII digits only (no sign, no
/// whitespace beyond the trim the caller already did), rejecting
/// overflow.
fn parse_content_length(value: &str) -> Option<usize> {
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    value.parse::<usize>().ok()
}

/// Reads one request from the stream.
///
/// `budget` bounds the *total* wall-clock time from the first request
/// byte to the end of the body — the slowloris guard. `stop` is polled
/// whenever a read waits (the caller's socket read timeout is the poll
/// tick); returning `true` abandons the read with [`ReadOutcome::Closed`]
/// so a shutting-down service never waits out a slow peer. Because it
/// runs exactly when the parser is about to block, `stop` doubles as the
/// connection worker's flush hook for buffered pipelined responses.
pub fn read_request<R: BufRead>(
    reader: &mut R,
    budget: Duration,
    stop: &mut dyn FnMut() -> bool,
) -> ReadOutcome {
    let mut started: Option<Instant> = None;
    let mut line: Vec<u8> = Vec::with_capacity(128);

    // Request line. A wait before the first byte is Idle; after it, the
    // budget clock is running.
    let end = loop {
        match read_line_limited(reader, &mut line, MAX_HEAD_BYTES) {
            Ok(end) => break end,
            Err(e) if is_wait(&e) => {
                if stop() {
                    return ReadOutcome::Closed;
                }
                if line.is_empty() && started.is_none() {
                    return ReadOutcome::Idle;
                }
                if started.is_some_and(|t| t.elapsed() > budget) {
                    return ReadOutcome::timeout("request line read overran the budget");
                }
                started.get_or_insert_with(Instant::now);
            }
            Err(_) => return ReadOutcome::Closed,
        }
    };
    if line.is_empty() {
        return ReadOutcome::Closed; // clean EOF between requests
    }
    let started = *started.get_or_insert_with(Instant::now);
    match end {
        LineEnd::Eof => return ReadOutcome::bad_request("truncated request line"),
        LineEnd::TooLong => {
            return ReadOutcome::Reject {
                status: 431,
                kind: "headers_too_large",
                message: "request line too long",
            }
        }
        LineEnd::Line => {}
    }
    let Ok(request_line) = std::str::from_utf8(&line) else {
        return ReadOutcome::bad_request("request line is not UTF-8");
    };
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return ReadOutcome::bad_request("bad request line");
    };
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return ReadOutcome::bad_request("unsupported HTTP version");
    }
    let method = method.to_ascii_uppercase();
    let path = path.to_string();
    let mut head_bytes = line.len();

    // Headers.
    let mut content_length = 0_usize;
    let mut close = false;
    loop {
        let mut header: Vec<u8> = Vec::with_capacity(64);
        let end = loop {
            match read_line_limited(
                reader,
                &mut header,
                MAX_HEAD_BYTES.saturating_sub(head_bytes),
            ) {
                Ok(end) => break end,
                Err(e) if is_wait(&e) => {
                    if stop() {
                        return ReadOutcome::Closed;
                    }
                    if started.elapsed() > budget {
                        return ReadOutcome::timeout("header read overran the budget");
                    }
                }
                Err(_) => return ReadOutcome::Closed,
            }
        };
        match end {
            LineEnd::Eof => return ReadOutcome::bad_request("truncated headers"),
            LineEnd::TooLong => {
                return ReadOutcome::Reject {
                    status: 431,
                    kind: "headers_too_large",
                    message: "headers too long",
                }
            }
            LineEnd::Line => {}
        }
        head_bytes += header.len();
        let Ok(text) = std::str::from_utf8(&header) else {
            return ReadOutcome::bad_request("header is not UTF-8");
        };
        let trimmed = text.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        let Some((name, value)) = trimmed.split_once(':') else {
            return ReadOutcome::bad_request("bad header");
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => match parse_content_length(value) {
                Some(n) if n <= MAX_BODY_BYTES => content_length = n,
                Some(_) => {
                    return ReadOutcome::Reject {
                        status: 413,
                        kind: "payload_too_large",
                        message: "body exceeds the 64 KiB cap",
                    }
                }
                None => return ReadOutcome::bad_request("bad content-length"),
            },
            "connection" if value.eq_ignore_ascii_case("close") => close = true,
            "transfer-encoding" => {
                // Chunked bodies are outside the subset.
                return ReadOutcome::bad_request("transfer-encoding not supported");
            }
            _ => {}
        }
    }

    // Body: resumable across torn reads, same total budget.
    let mut body = vec![0_u8; content_length];
    let mut filled = 0_usize;
    while filled < content_length {
        match reader.read(&mut body[filled..]) {
            Ok(0) => return ReadOutcome::bad_request("truncated body"),
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if is_wait(&e) => {
                if stop() {
                    return ReadOutcome::Closed;
                }
                if started.elapsed() > budget {
                    return ReadOutcome::timeout("body read overran the budget");
                }
            }
            Err(_) => return ReadOutcome::Closed,
        }
    }
    ReadOutcome::Ok(Request {
        method,
        path,
        body,
        close,
    })
}

/// The reason phrase for a status the service emits.
#[must_use]
fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Renders one JSON response into `out` (single contiguous buffer: one
/// write per response avoids the Nagle/delayed-ACK stall two-segment
/// responses provoke).
pub fn render_json(out: &mut Vec<u8>, status: u16, body: &str, close: bool) {
    let connection = if close { "close" } else { "keep-alive" };
    let head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: {connection}\r\n\r\n",
        reason_phrase(status),
        body.len()
    );
    out.reserve(head.len() + body.len());
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(body.as_bytes());
}

/// Writes one JSON response. Returns `false` when the peer is gone.
pub fn write_json(stream: &mut TcpStream, status: u16, body: &str, close: bool) -> bool {
    let mut message = Vec::with_capacity(256 + body.len());
    render_json(&mut message, status, body, close);
    stream.write_all(&message).is_ok() && stream.flush().is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_json_frames_status_length_and_connection() {
        let mut out = Vec::new();
        render_json(&mut out, 409, "{\"a\":1}", false);
        let text = String::from_utf8(out).expect("ascii");
        assert_eq!(
            text,
            "HTTP/1.1 409 Conflict\r\ncontent-type: application/json\r\n\
             content-length: 7\r\nconnection: keep-alive\r\n\r\n{\"a\":1}"
        );
        let mut out = Vec::new();
        render_json(&mut out, 503, "", true);
        let text = String::from_utf8(out).expect("ascii");
        assert!(
            text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{text}"
        );
        assert!(text.ends_with("connection: close\r\n\r\n"), "{text}");
        // A status the service never emits reads as a server error.
        assert_eq!(reason_phrase(599), "Internal Server Error");
    }
}
