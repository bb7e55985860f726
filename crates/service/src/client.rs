//! A hardened `sprintd` client: deadline-bounded requests, capped
//! exponential backoff with deterministic jitter, a software circuit
//! breaker, and idempotent `/step` retries.
//!
//! The dangerous failure for a sprint-control client is the *ambiguous*
//! one: the request was sent, the connection died, and the caller cannot
//! know whether the decision was applied. A naive retry double-advances
//! the plant — two control periods burned for one demand sample.
//! [`RetryClient`] closes that hole with the `expect_index` protocol:
//! every `/step` carries the decision index the client expects to land
//! on, learned from `/status` and advanced only on confirmed responses.
//! A retry of an applied request is answered from the server's replay
//! cache (`replayed: true`, plant untouched); a stale expectation is a
//! typed `409` that the client resolves by re-reading `/status`. Either
//! way the plant advances exactly once per intended decision.
//!
//! The circuit breaker sits in front of all of it: after
//! `breaker_threshold` consecutive request failures the client stops
//! hammering a struggling service and fails fast until `breaker_cooldown`
//! has passed, then probes with a single half-open attempt.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::protocol::{ErrorBody, StatusBody, StepBody, StepResponse};
use crate::xorshift64;

/// Cap on a response body [`read_response`] accepts.
///
/// Responses have their own cap because `/status` outgrows the server's
/// request cap ([`crate::http::MAX_BODY_BYTES`]): it carries one entry of
/// about 130 bytes per breaker, so the paper's 900-PDU facility renders
/// about 115 KB. 16 MiB admits facilities beyond 100,000 PDUs while still
/// refusing a runaway `Content-Length` before allocating for it.
pub const MAX_RESPONSE_BODY_BYTES: usize = 16 * 1024 * 1024;

/// Retry/deadline policy for a [`RetryClient`].
#[derive(Debug, Clone)]
pub struct RetryConfig {
    /// Per-attempt socket deadline (connect, read, and write).
    pub deadline: Duration,
    /// Retry attempts after the first try (0 disables retries).
    pub max_retries: u32,
    /// First backoff delay; doubles per attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Consecutive failed requests that open the circuit breaker.
    pub breaker_threshold: u32,
    /// How long the breaker stays open before a half-open probe.
    pub breaker_cooldown: Duration,
    /// Requests served per connection before the client rotates to a
    /// fresh one (0 keeps connections warm forever). Rotation bounds the
    /// blast radius of a bad path and, under the chaos proxy, keeps new
    /// per-connection fault plans arriving instead of letting the soak
    /// settle on one lucky clean connection.
    pub rotate_after: u32,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
}

impl Default for RetryConfig {
    fn default() -> RetryConfig {
        RetryConfig {
            deadline: Duration::from_secs(2),
            max_retries: 8,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(250),
            breaker_threshold: 8,
            breaker_cooldown: Duration::from_millis(500),
            rotate_after: 0,
            seed: 0x005E_EDC1_1E47,
        }
    }
}

/// Why a client call failed.
#[derive(Debug, Clone)]
pub enum ClientError {
    /// The circuit breaker is open; no request was sent.
    BreakerOpen {
        /// Time until the next half-open probe is allowed.
        retry_in: Duration,
    },
    /// Every attempt failed on the transport or with a retryable status.
    Exhausted {
        /// Attempts made (first try included).
        attempts: u32,
        /// The last failure, human-readable.
        last: String,
    },
    /// The service answered with a typed, non-retryable error.
    Rejected {
        /// HTTP status.
        status: u16,
        /// The typed error kind (`bad_request`, `draining`, …).
        kind: String,
        /// Human-readable context.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::BreakerOpen { retry_in } => {
                write!(f, "circuit breaker open (retry in {retry_in:?})")
            }
            ClientError::Exhausted { attempts, last } => {
                write!(f, "exhausted {attempts} attempts: {last}")
            }
            ClientError::Rejected {
                status,
                kind,
                message,
            } => write!(f, "{status} {kind}: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Since-construction client counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct ClientStats {
    /// Requests attempted (each retry counts).
    pub attempts: u64,
    /// Retries after a transport failure or retryable status.
    pub retries: u64,
    /// `/step` responses served from the server's replay cache — each
    /// one is an ambiguous retry that did *not* double-advance the plant.
    pub replays: u64,
    /// `409` responses resolved by re-reading `/status`.
    pub resyncs: u64,
    /// Calls rejected locally by the open circuit breaker.
    pub breaker_rejections: u64,
}

/// The client: one logical connection to `sprintd`, reconnected as
/// needed, with idempotent `/step` semantics.
pub struct RetryClient {
    addr: SocketAddr,
    config: RetryConfig,
    conn: Option<BufReader<TcpStream>>,
    conn_requests: u32,
    rng: u64,
    consecutive_failures: u32,
    breaker_open_until: Option<Instant>,
    next_index: Option<u64>,
    stats: ClientStats,
}

/// One attempt's outcome, before retry policy is applied.
enum Attempt {
    /// Parsed status + body; connection stays warm unless it closed.
    Response(u16, Vec<u8>),
    /// The transport failed somewhere ambiguous; retry (idempotently).
    Transport(String),
}

/// Parses a JSON payload (the vendored `serde_json` is `from_str`-only).
fn parse_json<T: serde::Deserialize>(payload: &[u8]) -> Result<T, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("non-UTF-8 body: {e}"))?;
    serde_json::from_str(text).map_err(|e| e.to_string())
}

impl RetryClient {
    /// Builds a client for the service at `addr` with default policy.
    #[must_use]
    pub fn new(addr: SocketAddr) -> RetryClient {
        RetryClient::with_config(addr, RetryConfig::default())
    }

    /// Builds a client with an explicit policy.
    #[must_use]
    pub fn with_config(addr: SocketAddr, config: RetryConfig) -> RetryClient {
        let mut rng = config.seed ^ 0x9E37_79B9_7F4A_7C15;
        if rng == 0 {
            rng = 1;
        }
        RetryClient {
            addr,
            config,
            conn: None,
            conn_requests: 0,
            rng,
            consecutive_failures: 0,
            breaker_open_until: None,
            next_index: None,
            stats: ClientStats::default(),
        }
    }

    /// The client's counters.
    #[must_use]
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Runs one idempotent control step: sends `demand` tagged with the
    /// expected decision index, retrying ambiguous failures without ever
    /// double-advancing the plant.
    pub fn step(&mut self, demand: f64) -> Result<StepResponse, ClientError> {
        self.check_breaker()?;
        if self.next_index.is_none() {
            let status = self.request_with_retries("GET", "/status", None)?;
            self.next_index = Some(status_decisions(&status)?);
        }
        let mut attempts = 0_u32;
        let mut last = String::from("no attempts made");
        while attempts <= self.config.max_retries {
            if attempts > 0 {
                self.stats.retries += 1;
                self.backoff(attempts);
            }
            attempts += 1;
            let expect = self.next_index;
            let body = serde_json::to_string(&StepBody {
                demand,
                dt_secs: None,
                expect_index: expect,
            })
            .map_err(|e| ClientError::Rejected {
                status: 0,
                kind: "encode".to_string(),
                message: e.to_string(),
            })?;
            match self.attempt("POST", "/step", Some(body.as_bytes())) {
                Attempt::Transport(why) => {
                    last = why;
                    // Ambiguous: the server may have applied the step.
                    // The expect_index on the retry makes this safe.
                }
                Attempt::Response(200, payload) => {
                    let step: StepResponse = match parse_json(&payload) {
                        Ok(step) => step,
                        Err(e) => {
                            last = format!("bad step response: {e}");
                            continue;
                        }
                    };
                    if step.replayed {
                        self.stats.replays += 1;
                    }
                    if let Some(index) = step.decision_index {
                        self.next_index = Some(index + 1);
                    }
                    self.succeed();
                    return Ok(step);
                }
                Attempt::Response(409, _) => {
                    // The expectation is stale (another writer, or an
                    // evicted replay entry): re-learn and retry.
                    self.stats.resyncs += 1;
                    match self.request_once("GET", "/status") {
                        Ok(status) => match status_decisions(&status) {
                            Ok(decisions) => self.next_index = Some(decisions),
                            Err(e) => last = e.to_string(),
                        },
                        Err(why) => last = why,
                    }
                }
                Attempt::Response(status, payload) if retryable(status, &payload) => {
                    last = describe(status, &payload);
                }
                Attempt::Response(status, payload) => {
                    self.fail();
                    return Err(rejected(status, &payload));
                }
            }
        }
        self.fail();
        Err(ClientError::Exhausted { attempts, last })
    }

    /// Fetches `/status` with full retry policy.
    pub fn status(&mut self) -> Result<StatusBody, ClientError> {
        self.check_breaker()?;
        let payload = self.request_with_retries("GET", "/status", None)?;
        parse_json(&payload).map_err(|message| ClientError::Rejected {
            status: 0,
            kind: "decode".to_string(),
            message,
        })
    }

    /// Asks the service to drain (`POST /shutdown`). Not retried: a
    /// transport failure after the send is reported, not re-sent.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.check_breaker()?;
        match self.attempt("POST", "/shutdown", None) {
            Attempt::Response(200, _) => {
                self.succeed();
                Ok(())
            }
            Attempt::Response(status, payload) => {
                self.fail();
                Err(rejected(status, &payload))
            }
            Attempt::Transport(why) => {
                self.fail();
                Err(ClientError::Exhausted {
                    attempts: 1,
                    last: why,
                })
            }
        }
    }

    fn check_breaker(&mut self) -> Result<(), ClientError> {
        if let Some(until) = self.breaker_open_until {
            let now = Instant::now();
            if now < until {
                self.stats.breaker_rejections += 1;
                return Err(ClientError::BreakerOpen {
                    retry_in: until - now,
                });
            }
            // Half-open: allow this call through as the probe. The
            // breaker re-opens on failure via `fail()`.
            self.breaker_open_until = None;
        }
        Ok(())
    }

    fn succeed(&mut self) {
        self.consecutive_failures = 0;
        self.breaker_open_until = None;
    }

    fn fail(&mut self) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        if self.consecutive_failures >= self.config.breaker_threshold {
            self.breaker_open_until = Some(Instant::now() + self.config.breaker_cooldown);
        }
    }

    /// Sleeps the capped exponential backoff for retry `attempt`, with
    /// ±50% deterministic jitter so synchronized clients decorrelate.
    fn backoff(&mut self, attempt: u32) {
        let exp = self
            .config
            .backoff_base
            .saturating_mul(1_u32 << attempt.min(16))
            .min(self.config.backoff_cap);
        let jitter = xorshift64(&mut self.rng) % 1000;
        let scaled = exp.mul_f64(0.5 + (jitter as f64) / 1000.0);
        std::thread::sleep(scaled);
    }

    /// A bodyless request with full retry policy (for `/status`).
    fn request_with_retries(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> Result<Vec<u8>, ClientError> {
        let mut attempts = 0_u32;
        let mut last = String::from("no attempts made");
        while attempts <= self.config.max_retries {
            if attempts > 0 {
                self.stats.retries += 1;
                self.backoff(attempts);
            }
            attempts += 1;
            match self.attempt(method, path, body) {
                Attempt::Response(200, payload) => {
                    self.succeed();
                    return Ok(payload);
                }
                Attempt::Response(status, payload) if retryable(status, &payload) => {
                    last = describe(status, &payload);
                }
                Attempt::Response(status, payload) => {
                    self.fail();
                    return Err(rejected(status, &payload));
                }
                Attempt::Transport(why) => last = why,
            }
        }
        self.fail();
        Err(ClientError::Exhausted { attempts, last })
    }

    /// One try of a request, no retries (used for 409 resyncs where the
    /// caller handles failure itself).
    fn request_once(&mut self, method: &str, path: &str) -> Result<Vec<u8>, String> {
        match self.attempt(method, path, None) {
            Attempt::Response(200, payload) => Ok(payload),
            Attempt::Response(status, payload) => Err(describe(status, &payload)),
            Attempt::Transport(why) => Err(why),
        }
    }

    /// One request/response exchange over the (re)connected stream.
    fn attempt(&mut self, method: &str, path: &str, body: Option<&[u8]>) -> Attempt {
        self.stats.attempts += 1;
        let mut conn = match self.conn.take() {
            Some(conn) => conn,
            None => match self.connect() {
                Ok(conn) => {
                    self.conn_requests = 0;
                    conn
                }
                Err(why) => return Attempt::Transport(why),
            },
        };
        let body = body.unwrap_or(&[]);
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: sprintd\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        let mut message = Vec::with_capacity(head.len() + body.len());
        message.extend_from_slice(head.as_bytes());
        message.extend_from_slice(body);
        if let Err(e) = conn
            .get_mut()
            .write_all(&message)
            .and_then(|()| conn.get_mut().flush())
        {
            return Attempt::Transport(format!("write: {e}"));
        }
        match read_response(&mut conn, self.config.deadline) {
            Ok((status, payload, close)) => {
                self.conn_requests = self.conn_requests.saturating_add(1);
                let rotate =
                    self.config.rotate_after > 0 && self.conn_requests >= self.config.rotate_after;
                if !close && !rotate {
                    self.conn = Some(conn);
                }
                Attempt::Response(status, payload)
            }
            Err(why) => Attempt::Transport(why),
        }
    }

    fn connect(&self) -> Result<BufReader<TcpStream>, String> {
        let stream = TcpStream::connect_timeout(&self.addr, self.config.deadline)
            .map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(self.config.deadline))
            .map_err(|e| format!("read timeout: {e}"))?;
        stream
            .set_write_timeout(Some(self.config.deadline))
            .map_err(|e| format!("write timeout: {e}"))?;
        Ok(BufReader::new(stream))
    }
}

/// Reads `decisions` out of a raw `/status` payload.
fn status_decisions(payload: &[u8]) -> Result<u64, ClientError> {
    let status: StatusBody = parse_json(payload).map_err(|message| ClientError::Rejected {
        status: 0,
        kind: "decode".to_string(),
        message,
    })?;
    Ok(status.decisions)
}

/// Whether a typed error status is worth retrying: transient server-side
/// pressure, not a caller bug.
fn retryable(status: u16, payload: &[u8]) -> bool {
    match status {
        429 => true,
        408 => true,
        503 => {
            // `draining` is terminal for this service instance; the
            // other 503 kinds (overloaded, deadline_exceeded,
            // decision_failed) are transient.
            error_kind(payload).as_deref() != Some("draining")
        }
        _ => false,
    }
}

fn error_kind(payload: &[u8]) -> Option<String> {
    parse_json::<ErrorBody>(payload)
        .ok()
        .map(|body| body.error.kind)
}

fn describe(status: u16, payload: &[u8]) -> String {
    match parse_json::<ErrorBody>(payload) {
        Ok(body) => format!("{status} {}: {}", body.error.kind, body.error.message),
        Err(_) => format!("{status} (unparseable body)"),
    }
}

fn rejected(status: u16, payload: &[u8]) -> ClientError {
    match parse_json::<ErrorBody>(payload) {
        Ok(body) => ClientError::Rejected {
            status,
            kind: body.error.kind,
            message: body.error.message,
        },
        Err(_) => ClientError::Rejected {
            status,
            kind: "unparseable".to_string(),
            message: format!("{status} with an unparseable body"),
        },
    }
}

/// Reads one HTTP/1.1 response (status line, headers, content-length
/// body) under `deadline`; returns `(status, body, connection_close)`.
///
/// This is the one response reader in the service crate: [`RetryClient`]
/// and the integration tests both use it. Any malformed or torn frame,
/// a header line over [`crate::http::MAX_HEAD_BYTES`], or a body over
/// [`MAX_RESPONSE_BODY_BYTES`] is an `Err` describing the fault — a
/// [`RetryClient`] treats it as a transport failure, reconnects and
/// (idempotently) retries. The deadline is checked between reads, so
/// `reader`'s socket should carry a read timeout no longer than it.
///
/// # Errors
///
/// Returns a human-readable description of the first framing, size,
/// deadline or I/O fault.
pub fn read_response(
    reader: &mut BufReader<TcpStream>,
    deadline: Duration,
) -> Result<(u16, Vec<u8>, bool), String> {
    let started = Instant::now();
    let mut line = String::new();
    read_line_bounded(reader, &mut line, started, deadline)?;
    let mut parts = line.split_whitespace();
    let (Some(version), Some(code)) = (parts.next(), parts.next()) else {
        return Err(format!("bad status line {line:?}"));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(format!("bad status line {line:?}"));
    }
    let status: u16 = code
        .parse()
        .map_err(|_| format!("bad status code {code:?}"))?;
    let mut content_length = 0_usize;
    let mut close = false;
    loop {
        let mut header = String::new();
        read_line_bounded(reader, &mut header, started, deadline)?;
        let trimmed = header.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        let Some((name, value)) = trimmed.split_once(':') else {
            return Err(format!("bad header {trimmed:?}"));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        if name == "content-length" {
            content_length = value
                .parse()
                .map_err(|_| format!("bad content-length {value:?}"))?;
            if content_length > MAX_RESPONSE_BODY_BYTES {
                return Err(format!("response body too large ({content_length})"));
            }
        } else if name == "connection" && value.eq_ignore_ascii_case("close") {
            close = true;
        }
    }
    let mut payload = vec![0_u8; content_length];
    let mut filled = 0_usize;
    while filled < content_length {
        if started.elapsed() > deadline {
            return Err("response body overran the deadline".to_string());
        }
        match reader.read(&mut payload[filled..]) {
            Ok(0) => return Err("response truncated".to_string()),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("read body: {e}")),
        }
    }
    Ok((status, payload, close))
}

fn read_line_bounded(
    reader: &mut BufReader<TcpStream>,
    line: &mut String,
    started: Instant,
    deadline: Duration,
) -> Result<(), String> {
    if started.elapsed() > deadline {
        return Err("response overran the deadline".to_string());
    }
    match reader.read_line(line) {
        Ok(0) => Err("connection closed mid-response".to_string()),
        Ok(_) if line.len() > crate::http::MAX_HEAD_BYTES => {
            Err("response header line too long".to_string())
        }
        Ok(_) => Ok(()),
        Err(e) => Err(format!("read: {e}")),
    }
}
