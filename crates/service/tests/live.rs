//! In-process end-to-end tests for the live service: normal serving,
//! typed errors, backpressure, deadline overruns, stale-feed degradation
//! and recovery, validated reloads, chaos isolation,
//! checkpoint/restore across a clean restart, and failed checkpoint
//! writes.

mod common;

use std::net::SocketAddr;
use std::time::Duration;

use common::{request, scratch_dir, step, KeepAlive};
use dcs_faults::{ChaosEvent, ChaosKind, ChaosSchedule};
use dcs_service::{
    Durability, ErrorBody, HealthBody, ReloadResponse, RetryClient, ServiceConfig, ServiceOptions,
    SprintService, StatusBody, StepResponse, STATUS_SCHEMA,
};

fn small_config() -> ServiceConfig {
    ServiceConfig::for_facility(2, 20)
}

fn spawn(config: ServiceConfig, options: ServiceOptions) -> SprintService {
    SprintService::spawn(config, options, 0).expect("spawn service")
}

fn parse<T: serde::Deserialize>(body: &str) -> T {
    serde_json::from_str(body).unwrap_or_else(|e| panic!("bad body {body:?}: {e}"))
}

#[test]
fn serves_steps_and_status() {
    let service = spawn(small_config(), ServiceOptions::default());
    let addr = service.addr();

    let (status, body) = step(addr, 0.5);
    assert_eq!(status, 200, "{body}");
    let response: StepResponse = parse(&body);
    assert!(!response.degraded);
    assert_eq!(response.decision_index, Some(0));
    let record = response.record.expect("physics record");
    assert!(!record.sprinting);

    let (status, body) = step(addr, 2.6);
    assert_eq!(status, 200, "{body}");
    let response: StepResponse = parse(&body);
    assert_eq!(response.decision_index, Some(1));
    assert!(response.record.expect("record").sprinting);

    let (status, body) = request(addr, "GET", "/status", None);
    assert_eq!(status, 200, "{body}");
    let status_body: StatusBody = parse(&body);
    assert_eq!(status_body.schema, STATUS_SCHEMA);
    assert_eq!(status_body.mode, "serving");
    assert_eq!(status_body.decisions, 2);
    assert_eq!(status_body.counters.served, 2);
    assert_eq!(status_body.facility.breakers.len(), 3, "dc + 2 pdus");
    assert_eq!(status_body.facility.breakers[0].name, "dc");
    assert!(status_body.facility.breakers[0].no_trip_limit_w > 0.0);
    assert!(status_body.sprint.active);
    assert_eq!(status_body.window.steps, 2);
    assert_eq!(status_body.durability, Durability::Off, "no state dir");

    let (status, body) = request(addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
    let health: HealthBody = parse(&body);
    assert_eq!(health.status, "serving");

    service.shutdown();
}

/// The paper's facility (900 PDUs × 200 servers) renders a `/status`
/// larger than the server's request-body cap, and a [`RetryClient`] must
/// still read it: `step()` starts by learning the decision index from
/// `/status`.
#[test]
fn retry_client_drives_the_paper_facility() {
    let service = spawn(
        ServiceConfig::for_facility(900, 200),
        ServiceOptions::default(),
    );
    let mut client = RetryClient::new(service.addr());
    let response = client.step(2.6).expect("step on the paper facility");
    assert_eq!(response.decision_index, Some(0));

    // The engine publishes the full per-breaker status before it answers
    // a step, so from here on `/status` is at its full size.
    let (status, body) = request(service.addr(), "GET", "/status", None);
    assert_eq!(status, 200);
    assert!(
        body.len() > dcs_service::http::MAX_BODY_BYTES,
        "/status is only {} bytes, so this test no longer exercises the \
         response cap",
        body.len()
    );
    let status = client.status().expect("status on the paper facility");
    assert_eq!(status.decisions, 1);
    assert_eq!(status.facility.breakers.len(), 901, "dc + 900 pdus");
    service.shutdown();
}

#[test]
fn malformed_requests_get_typed_errors() {
    let service = spawn(small_config(), ServiceOptions::default());
    let addr = service.addr();

    let (status, body) = request(addr, "POST", "/step", Some("not json"));
    assert_eq!(status, 400);
    assert_eq!(parse::<ErrorBody>(&body).error.kind, "bad_request");

    let (status, body) = request(addr, "POST", "/step", Some(r#"{"demand":-1.0}"#));
    assert_eq!(status, 400);
    assert_eq!(parse::<ErrorBody>(&body).error.kind, "bad_request");

    let (status, body) = request(
        addr,
        "POST",
        "/step",
        Some(r#"{"demand":0.5,"dt_secs":0.0}"#),
    );
    assert_eq!(status, 400);
    assert_eq!(parse::<ErrorBody>(&body).error.kind, "bad_request");

    let (status, body) = request(addr, "GET", "/nope", None);
    assert_eq!(status, 404);
    assert_eq!(parse::<ErrorBody>(&body).error.kind, "not_found");

    let (status, body) = request(addr, "DELETE", "/step", None);
    assert_eq!(status, 405);
    assert_eq!(parse::<ErrorBody>(&body).error.kind, "method_not_allowed");

    // None of that disturbed serving.
    let (status, _) = step(addr, 0.5);
    assert_eq!(status, 200);

    service.shutdown();
}

#[test]
fn full_queue_answers_backpressure() {
    let mut config = small_config();
    config.queue_depth = Some(1);
    config.deadline_ms = Some(5_000);
    // Decision 0 stalls in the engine long enough for the queue to fill
    // behind it.
    let options = ServiceOptions {
        state_dir: None,
        chaos: ChaosSchedule::delay_on(0, 0, 700),
    };
    let service = spawn(config, options);
    let addr = service.addr();

    let slow = std::thread::spawn(move || step(addr, 0.5));
    std::thread::sleep(Duration::from_millis(150));
    let queued = std::thread::spawn(move || step(addr, 0.5));
    std::thread::sleep(Duration::from_millis(150));

    // Engine busy with request 1, request 2 holds the single queue slot:
    // this one must be refused immediately, not queued.
    let (status, body) = step(addr, 0.5);
    assert_eq!(status, 429, "{body}");
    let error: ErrorBody = parse(&body);
    assert_eq!(error.error.kind, "backpressure");
    assert_eq!(error.error.queue_depth, Some(1));

    let (status, _) = slow.join().expect("slow request");
    assert_eq!(status, 200);
    let (status, _) = queued.join().expect("queued request");
    assert_eq!(status, 200);

    let (_, body) = request(addr, "GET", "/status", None);
    let status_body: StatusBody = parse(&body);
    assert!(status_body.counters.backpressure >= 1);

    service.shutdown();
}

#[test]
fn deadline_overrun_degrades_then_recovers() {
    let mut config = small_config();
    config.deadline_ms = Some(100);
    config.stale_after_ms = Some(60_000);
    let options = ServiceOptions {
        state_dir: None,
        chaos: ChaosSchedule::delay_on(0, 0, 600),
    };
    let service = spawn(config, options);
    let addr = service.addr();

    // The stalled decision overruns its deadline: typed error, and the
    // service flips to degraded.
    let (status, body) = step(addr, 0.5);
    assert_eq!(status, 503, "{body}");
    let error: ErrorBody = parse(&body);
    assert_eq!(error.error.kind, "deadline_exceeded");
    assert_eq!(error.error.deadline_ms, Some(100));

    // Degraded serving answers 200 with the fail-safe actuation.
    let (status, body) = step(addr, 2.6);
    assert_eq!(status, 200, "{body}");
    let response: StepResponse = parse(&body);
    assert!(response.degraded);
    assert_eq!(response.degraded_reason.as_deref(), Some("engine_overrun"));
    assert!(response.failsafe_cores.unwrap() > 0);
    assert!(response.record.is_none());

    let (_, body) = request(addr, "GET", "/status", None);
    let status_body: StatusBody = parse(&body);
    assert_eq!(status_body.mode, "degraded");
    assert!(status_body.degraded.engine_overrun);

    // Once the stall passes, the watchdog's probe proves the engine
    // healthy and normal serving resumes.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        std::thread::sleep(Duration::from_millis(50));
        let (status, body) = step(addr, 0.5);
        assert_eq!(status, 200, "{body}");
        let response: StepResponse = parse(&body);
        if !response.degraded {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "service never recovered from the overrun"
        );
    }

    service.shutdown();
}

#[test]
fn stale_feed_degrades_and_traffic_recovers() {
    let mut config = small_config();
    config.stale_after_ms = Some(300);
    let service = spawn(config, ServiceOptions::default());
    let addr = service.addr();

    let (status, _) = step(addr, 0.5);
    assert_eq!(status, 200);

    // Go silent past the staleness window: the watchdog degrades.
    std::thread::sleep(Duration::from_millis(700));
    let (_, body) = request(addr, "GET", "/status", None);
    let status_body: StatusBody = parse(&body);
    assert_eq!(status_body.mode, "degraded", "{body}");
    assert!(status_body.degraded.stale_feed);

    // Healthz still answers 200 while degraded (alive, just fail-safe).
    let (status, body) = request(addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
    assert_eq!(parse::<HealthBody>(&body).status, "degraded");

    // Traffic resuming: the first request(s) are fail-safe, then the
    // watchdog restores serving.
    let (status, body) = step(addr, 0.5);
    assert_eq!(status, 200);
    let response: StepResponse = parse(&body);
    assert!(response.degraded);
    assert_eq!(response.degraded_reason.as_deref(), Some("stale_feed"));

    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        std::thread::sleep(Duration::from_millis(50));
        let (status, body) = step(addr, 0.5);
        assert_eq!(status, 200, "{body}");
        if !parse::<StepResponse>(&body).degraded {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "service never recovered from the stale feed"
        );
    }

    service.shutdown();
}

#[test]
fn reload_validates_swaps_and_rolls_back() {
    let service = spawn(small_config(), ServiceOptions::default());
    let addr = service.addr();
    let (status, _) = step(addr, 0.5);
    assert_eq!(status, 200);

    // Invalid reload: typed rejection, running config untouched.
    let (status, body) = request(
        addr,
        "POST",
        "/reload",
        Some(r#"{"pdus":2,"servers_per_pdu":20,"queue_depth":0}"#),
    );
    assert_eq!(status, 400, "{body}");
    assert_eq!(parse::<ErrorBody>(&body).error.kind, "config");
    let (_, body) = request(addr, "GET", "/status", None);
    let status_body: StatusBody = parse(&body);
    assert_eq!(status_body.config_generation, 1);
    assert!(status_body
        .last_reload_error
        .as_deref()
        .unwrap()
        .contains("queue_depth"));
    assert_eq!(status_body.counters.reloads_rejected, 1);
    let (status, _) = step(addr, 0.5);
    assert_eq!(status, 200);

    // Same-plant reload: service knobs hot-swap, plant state survives.
    let (status, body) = request(
        addr,
        "POST",
        "/reload",
        Some(r#"{"pdus":2,"servers_per_pdu":20,"deadline_ms":400}"#),
    );
    assert_eq!(status, 200, "{body}");
    let reload: ReloadResponse = parse(&body);
    assert!(!reload.rebuilt);
    assert_eq!(reload.config_generation, 2);
    let (_, body) = request(addr, "GET", "/status", None);
    let status_body: StatusBody = parse(&body);
    assert_eq!(status_body.decisions, 2, "plant state survived the swap");
    assert!(status_body.last_reload_error.is_none());

    // Plant-changing reload: rebuilt from scratch on the new geometry.
    let (status, body) = request(
        addr,
        "POST",
        "/reload",
        Some(r#"{"pdus":3,"servers_per_pdu":20}"#),
    );
    assert_eq!(status, 200, "{body}");
    assert!(parse::<ReloadResponse>(&body).rebuilt);
    let (_, body) = request(addr, "GET", "/status", None);
    let status_body: StatusBody = parse(&body);
    assert_eq!(status_body.decisions, 0);
    assert_eq!(status_body.facility.breakers.len(), 4, "dc + 3 pdus");
    let (status, _) = step(addr, 0.5);
    assert_eq!(status, 200);

    service.shutdown();
}

#[test]
fn chaos_panic_is_isolated_to_one_request() {
    let options = ServiceOptions {
        state_dir: None,
        chaos: ChaosSchedule::new(vec![ChaosEvent {
            item: 0,
            attempt: 0,
            kind: ChaosKind::Panic,
        }]),
    };
    let service = spawn(small_config(), options);
    let addr = service.addr();

    let (status, body) = step(addr, 0.5);
    assert_eq!(status, 503, "{body}");
    assert_eq!(parse::<ErrorBody>(&body).error.kind, "decision_failed");

    // The panic was contained: the engine keeps serving.
    let (status, body) = step(addr, 0.5);
    assert_eq!(status, 200, "{body}");
    assert!(!parse::<StepResponse>(&body).degraded);

    let (status, body) = request(addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
    assert_eq!(parse::<HealthBody>(&body).status, "serving");

    service.shutdown();
}

/// A restart restores the plant bit-identically, on a small plant and on
/// the paper's. Each `/status` after a restart is asked the moment `spawn`
/// returns, before the engine has rebuilt the plant from its checkpoint:
/// it must wait for the engine's first publish, not answer a placeholder.
#[test]
fn clean_restart_restores_checkpointed_state() {
    for (pdus, servers_per_pdu) in [(2, 20), (900, 200)] {
        let dir = scratch_dir(&format!("restart-{pdus}"));
        let mut config = ServiceConfig::for_facility(pdus, servers_per_pdu);
        config.checkpoint_every = Some(1);
        // That wait is bounded by the request deadline, which here must
        // cover a debug build's plant construction on a loaded host.
        config.deadline_ms = Some(30_000);
        let options = || ServiceOptions {
            state_dir: Some(dir.clone()),
            chaos: ChaosSchedule::none(),
        };

        let service = spawn(config.clone(), options());
        let addr = service.addr();
        for i in 0..12 {
            let demand = if (4..10).contains(&i) { 2.6 } else { 0.6 };
            let (status, body) = step(addr, demand);
            assert_eq!(status, 200, "{body}");
        }
        let (_, body) = request(addr, "GET", "/status", None);
        let before: StatusBody = parse(&body);
        assert_eq!(before.decisions, 12);
        service.shutdown();

        let service = spawn(config, options());
        let (status, body) = request(service.addr(), "GET", "/status", None);
        assert_eq!(status, 200, "{body}");
        let after: StatusBody = parse(&body);
        assert_eq!(after.decisions, 12);
        assert_eq!(after.facility.breakers.len(), pdus + 1, "dc + every pdu");
        assert_eq!(
            after.facility, before.facility,
            "plant hot state did not restore bit-identically"
        );
        assert_eq!(after.sprint, before.sprint);
        service.shutdown();

        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A checkpoint write that fails does not stop serving: `/status` counts
/// it and reports `lagging`. The plant's checkpoint directory is replaced
/// by a regular file, which fails the write even for a root user.
#[test]
fn failed_checkpoint_is_counted_and_reported_lagging() {
    fn status(addr: SocketAddr) -> StatusBody {
        let (code, body) = request(addr, "GET", "/status", None);
        assert_eq!(code, 200, "{body}");
        parse(&body)
    }
    let dir = scratch_dir("lagging");
    let mut config = small_config();
    config.checkpoint_every = Some(1);
    let options = ServiceOptions {
        state_dir: Some(dir.clone()),
        chaos: ChaosSchedule::none(),
    };
    let service = spawn(config.clone(), options);
    let addr = service.addr();
    let (code, body) = step(addr, 0.6);
    assert_eq!(code, 200, "{body}");
    let healthy = status(addr);
    assert_eq!(healthy.durability, Durability::Durable);
    assert_eq!(healthy.counters.checkpoint_failures, 0);

    let plant_dir = dir.join(format!("plant-{:016x}", config.plant_fingerprint()));
    std::fs::remove_dir_all(&plant_dir).expect("remove the plant's checkpoint directory");
    std::fs::write(&plant_dir, "not a directory").expect("put a file in its place");
    let (code, body) = step(addr, 0.6);
    assert_eq!(
        code, 200,
        "a failed checkpoint must not fail the step: {body}"
    );
    let lagging = status(addr);
    assert_eq!(lagging.decisions, 2);
    assert!(
        lagging.counters.checkpoint_failures >= 1,
        "{:?}",
        lagging.counters
    );
    assert_eq!(lagging.durability, Durability::Lagging);
    service.shutdown();

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_endpoint_drains() {
    // Park decision 1 in the engine so the drain window stays open while
    // the test probes draining behavior: the coordinator must wait for
    // the in-flight request, and new connections must get typed refusals
    // in the meantime.
    let mut config = small_config();
    config.deadline_ms = Some(5_000);
    let options = ServiceOptions {
        state_dir: None,
        chaos: ChaosSchedule::delay_on(1, 0, 900),
    };
    let service = spawn(config, options);
    let addr = service.addr();
    let (status, _) = step(addr, 0.5);
    assert_eq!(status, 200);

    let slow = std::thread::spawn(move || step(addr, 0.5));
    std::thread::sleep(Duration::from_millis(200));

    let (status, body) = request(addr, "POST", "/shutdown", None);
    assert_eq!(status, 200, "{body}");

    // While draining, new connections are refused with the typed status
    // straight from the acceptor.
    let (status, body) = step(addr, 0.5);
    assert_eq!(status, 503, "{body}");
    assert_eq!(parse::<ErrorBody>(&body).error.kind, "draining");

    // The in-flight decision still completes under the drain deadline.
    let (status, body) = slow.join().expect("in-flight request");
    assert_eq!(status, 200, "{body}");

    service.join();
}

#[test]
fn connection_limit_rejects_typed() {
    // 2 workers + a 1-deep pending queue = 3 concurrent connections;
    // the 4th gets an immediate typed 503, never a silent drop.
    let mut config = small_config();
    config.workers = Some(2);
    config.accept_queue = Some(1);
    let service = spawn(config, ServiceOptions::default());
    let addr = service.addr();

    // Park both workers on live keep-alive connections, one at a time —
    // the exchange proves the connection left the pending queue for a
    // worker before the next one arrives.
    let mut held_a = KeepAlive::connect(addr);
    assert_eq!(held_a.get("/healthz").0, 200);
    let mut held_b = KeepAlive::connect(addr);
    assert_eq!(held_b.get("/healthz").0, 200);

    // Fills the single pending-queue slot (accepted, not yet served).
    let queued = KeepAlive::connect(addr);
    std::thread::sleep(Duration::from_millis(100));

    // Over capacity: typed rejection straight from the acceptor.
    let (status, body) = request(addr, "GET", "/healthz", None);
    assert_eq!(status, 503, "{body}");
    assert_eq!(parse::<ErrorBody>(&body).error.kind, "overloaded");

    // The reject is counted, not silent.
    let (status, body) = held_a.get("/status");
    assert_eq!(status, 200, "{body}");
    let status_body: StatusBody = parse(&body);
    assert!(status_body.counters.connections_rejected >= 1);
    assert!(status_body.counters.connections_accepted >= 3);

    // Freeing a worker unblocks the queued connection: it was never
    // dropped, just waiting.
    drop(held_a);
    drop(held_b);
    let mut queued = queued;
    let (status, _) = queued.get("/healthz");
    assert_eq!(status, 200);

    service.shutdown();
}
