//! Throughput floors for the live decision path:
//!
//! - the bare `step_cycle` loop on the service's plant clears 50k
//!   decisions/s with a p99 under 1 ms;
//! - one keep-alive connection serves 2,000 sequential `/step`s with zero
//!   5xx, above 100 req/s;
//! - 8 clients each pipelining depth-32 bursts down a keep-alive
//!   connection see zero 5xx and clear 25k aggregate req/s.
//!
//! Zero 5xx is asserted in every build. The rate and latency floors
//! describe optimized code, so they are asserted only when debug
//! assertions are off; `ci.sh` runs this file with `cargo test --release`
//! under a timeout. The tests hold one lock so their timings never
//! overlap.

mod common;

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use common::KeepAlive;
use dcs_core::{step_cycle, FacilityState, Greedy, NullSink, SprintPolicy, StepInput};
use dcs_service::{read_response, ServiceConfig, ServiceOptions, SprintService};
use dcs_units::Seconds;

/// Bare engine decisions timed.
const ENGINE_DECISIONS: usize = 200_000;
/// Floor on bare decision throughput (decisions/s).
const ENGINE_RATE_FLOOR: f64 = 50_000.0;
/// Ceiling on bare decision p99 (µs).
const ENGINE_P99_CEILING_US: f64 = 1_000.0;
/// Sequential requests on the single keep-alive connection.
const HTTP_REQUESTS: usize = 2_000;
/// Floor on single-connection throughput (req/s).
const HTTP_RATE_FLOOR: f64 = 100.0;
/// Concurrent pipelined clients.
const MULTI_CLIENTS: usize = 8;
/// Requests written per burst on each pipelined connection.
const PIPELINE_DEPTH: usize = 32;
/// Pipelined requests per client.
const MULTI_PER_CLIENT: usize = 8_000;
/// Floor on aggregate pipelined throughput (req/s).
const MULTI_RATE_FLOOR: f64 = 25_000.0;
/// How long any one response may take.
const RESPONSE_DEADLINE: Duration = Duration::from_secs(30);

/// Only optimized builds are held to the rate and latency floors.
const ENFORCE_FLOORS: bool = !cfg!(debug_assertions);

/// Serializes the tests so one's load never skews another's timing.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The demand cycle every section drives: mostly quiet with periodic
/// bursts, so decisions exercise the sprint path, not just the idle one.
fn demand_at(i: usize) -> f64 {
    if i % 60 < 12 {
        2.6
    } else {
        0.6
    }
}

fn step_body(i: usize) -> String {
    format!(r#"{{"demand":{:?}}}"#, demand_at(i))
}

/// Nearest-rank 99th percentile of `samples`.
fn p99(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[((samples.len() - 1) as f64 * 0.99).round() as usize]
}

#[test]
fn bare_engine_clears_rate_floor_with_sub_ms_p99() {
    let _serial = serial();
    let config = ServiceConfig::for_facility(2, 20);
    let spec = config.spec();
    let controller = config.controller();
    let mut facility = FacilityState::new(&spec, &controller);
    let mut policy = SprintPolicy::new(Box::new(Greedy), &spec);
    let dt = Seconds::new(config.step_secs());
    let mut samples_us = Vec::with_capacity(ENGINE_DECISIONS);
    let start = Instant::now();
    for i in 0..ENGINE_DECISIONS {
        let input = StepInput::nominal(facility.now(), demand_at(i), dt);
        let tick = Instant::now();
        let effects = step_cycle(&mut facility, &mut policy, &input, &mut NullSink);
        samples_us.push(tick.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(&effects);
    }
    let rate = ENGINE_DECISIONS as f64 / start.elapsed().as_secs_f64();
    let p99_us = p99(samples_us);
    eprintln!("bare engine: {rate:.0} decisions/s, p99 {p99_us:.1} us");
    if ENFORCE_FLOORS {
        assert!(
            rate >= ENGINE_RATE_FLOOR,
            "engine rate {rate:.0}/s below the {ENGINE_RATE_FLOOR:.0}/s floor"
        );
        assert!(
            p99_us < ENGINE_P99_CEILING_US,
            "engine p99 {p99_us:.1} us above {ENGINE_P99_CEILING_US:.0} us"
        );
    }
}

#[test]
fn single_connection_serves_without_5xx() {
    let _serial = serial();
    let service = SprintService::spawn(
        ServiceConfig::for_facility(2, 20),
        ServiceOptions::default(),
        0,
    )
    .expect("spawn service");
    let mut conn = KeepAlive::connect(service.addr());
    let mut responses_5xx = 0_usize;
    let start = Instant::now();
    for i in 0..HTTP_REQUESTS {
        let (status, _) = conn.send("POST", "/step", Some(&step_body(i)));
        responses_5xx += usize::from(status >= 500);
    }
    let rate = HTTP_REQUESTS as f64 / start.elapsed().as_secs_f64();
    drop(conn);
    service.shutdown();
    eprintln!("single connection: {rate:.0} req/s, {responses_5xx} 5xx");
    assert_eq!(responses_5xx, 0, "5xx responses under clean load");
    if ENFORCE_FLOORS {
        assert!(
            rate > HTTP_RATE_FLOOR,
            "single-connection rate {rate:.0}/s not above {HTTP_RATE_FLOOR:.0}/s"
        );
    }
}

/// One pipelined client: writes `PIPELINE_DEPTH` requests per burst,
/// then reads the whole burst of responses. Returns the 5xx count.
fn run_pipelined_client(addr: SocketAddr) -> usize {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(RESPONSE_DEADLINE))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let mut responses_5xx = 0_usize;
    let mut sent = 0_usize;
    while sent < MULTI_PER_CLIENT {
        let batch = PIPELINE_DEPTH.min(MULTI_PER_CLIENT - sent);
        let mut burst = Vec::with_capacity(batch * 160);
        for i in sent..sent + batch {
            let body = step_body(i);
            burst.extend_from_slice(
                format!(
                    "POST /step HTTP/1.1\r\nhost: localhost\r\ncontent-length: {}\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            );
        }
        writer.write_all(&burst).expect("write burst");
        for _ in 0..batch {
            let (status, _, _) = read_response(&mut reader, RESPONSE_DEADLINE).expect("response");
            responses_5xx += usize::from(status >= 500);
        }
        sent += batch;
    }
    responses_5xx
}

#[test]
fn pipelined_clients_clear_aggregate_floor_without_5xx() {
    let _serial = serial();
    let mut config = ServiceConfig::for_facility(2, 20);
    // Deep enough that a full pipeline from every client fits in the
    // engine queue instead of tripping backpressure.
    config.queue_depth = Some(MULTI_CLIENTS * PIPELINE_DEPTH * 2);
    config.deadline_ms = Some(5_000);
    let service = SprintService::spawn(config, ServiceOptions::default(), 0).expect("spawn");
    let addr = service.addr();

    let start = Instant::now();
    let clients: Vec<_> = (0..MULTI_CLIENTS)
        .map(|_| std::thread::spawn(move || run_pipelined_client(addr)))
        .collect();
    let responses_5xx: usize = clients
        .into_iter()
        .map(|client| client.join().expect("client thread"))
        .sum();
    let requests = MULTI_CLIENTS * MULTI_PER_CLIENT;
    let elapsed = start.elapsed();
    let rate = requests as f64 / elapsed.as_secs_f64();
    service.shutdown();
    // Everything a one-off miss needs to be told apart from a regression:
    // the host's load at the time is part of the measurement.
    let loadavg = std::fs::read_to_string("/proc/loadavg")
        .map_or_else(|e| format!("unreadable ({e})"), |l| l.trim().to_string());
    let measured = format!(
        "{rate:.0} req/s aggregate ({requests} requests from {MULTI_CLIENTS} pipelined \
         clients in {elapsed:?}), {responses_5xx} 5xx, loadavg {loadavg}"
    );
    eprintln!("{measured}");
    assert_eq!(
        responses_5xx, 0,
        "5xx responses under pipelined load: {measured}"
    );
    if ENFORCE_FLOORS {
        assert!(
            rate >= MULTI_RATE_FLOOR,
            "aggregate rate below the {MULTI_RATE_FLOOR:.0}/s floor: {measured}"
        );
    }
}
