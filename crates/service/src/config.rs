//! Service configuration: facility geometry, controller knobs, and the
//! serving limits (deadline, queue depth, staleness window, checkpoint
//! cadence).
//!
//! A [`ServiceConfig`] arrives as JSON (a file for `sprintd`, a request
//! body for `POST /reload`), is validated *before* anything acts on it,
//! and is then swapped in atomically — an invalid reload never disturbs
//! the running configuration. Optional fields default via the
//! [`resolved`](ServiceConfig::deadline_ms) accessors so a minimal config
//! is just the facility geometry.

use dcs_core::ControllerConfig;
use dcs_power::DataCenterSpec;
use dcs_sim::{fingerprint_of, SimError};
use dcs_units::Ratio;
use serde::{Deserialize, Serialize};

/// Default per-request decision deadline.
pub const DEFAULT_DEADLINE_MS: u64 = 250;
/// Default bounded-queue depth between the HTTP layer and the engine.
pub const DEFAULT_QUEUE_DEPTH: usize = 64;
/// Default stale-feed window before the watchdog degrades the service.
pub const DEFAULT_STALE_AFTER_MS: u64 = 5_000;
/// Default decisions between hot-state checkpoints.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 16;
/// Default recent-step telemetry window.
pub const DEFAULT_WINDOW_STEPS: usize = 256;
/// Default control period.
pub const DEFAULT_STEP_SECS: f64 = 1.0;
/// Default connection worker-pool size.
pub const DEFAULT_WORKERS: usize = 16;
/// Default bounded pending-connection queue depth (the hard connection
/// limit is `workers + accept_queue`).
pub const DEFAULT_ACCEPT_QUEUE: usize = 64;
/// Default graceful-drain deadline.
pub const DEFAULT_DRAIN_DEADLINE_MS: u64 = 5_000;
/// Default replay-cache depth (idempotent-retry window, in decisions).
pub const DEFAULT_REPLAY_CACHE: usize = 512;
/// Default total per-request read budget (slowloris guard).
pub const DEFAULT_READ_BUDGET_MS: u64 = 5_000;

/// The live service's configuration. Facility geometry is required;
/// everything else defaults.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// PDU count.
    pub pdus: usize,
    /// Servers per PDU.
    pub servers_per_pdu: usize,
    /// DC-level breaker headroom in percent (default 10).
    pub dc_headroom_percent: Option<f64>,
    /// Facility PUE (default 1.53).
    pub pue: Option<f64>,
    /// Controller configuration (default: the paper's).
    pub controller: Option<ControllerConfig>,
    /// Control period in seconds (default 1.0).
    pub step_secs: Option<f64>,
    /// Per-request decision deadline in milliseconds (default 250).
    pub deadline_ms: Option<u64>,
    /// Bounded request-queue depth (default 64).
    pub queue_depth: Option<usize>,
    /// Stale-feed window in milliseconds before the watchdog degrades
    /// the service (default 5000).
    pub stale_after_ms: Option<u64>,
    /// Decisions between hot-state checkpoints (default 16; 1 checkpoints
    /// every decision).
    pub checkpoint_every: Option<u64>,
    /// Recent-step telemetry window (default 256).
    pub window_steps: Option<usize>,
    /// Connection worker-pool size (default 16; fixed at boot — a reload
    /// does not resize the pool).
    #[serde(default)]
    pub workers: Option<usize>,
    /// Pending-connection queue depth (default 64; fixed at boot). With
    /// `workers` this is the hard connection limit — beyond it the
    /// acceptor answers a typed `503 overloaded` immediately.
    #[serde(default)]
    pub accept_queue: Option<usize>,
    /// Graceful-drain deadline in milliseconds (default 5000): how long
    /// a shutdown waits for in-flight requests before checkpointing.
    #[serde(default)]
    pub drain_deadline_ms: Option<u64>,
    /// Replay-cache depth in decisions (default 512): how far back an
    /// idempotent retry (`expect_index`) can be answered from cache.
    #[serde(default)]
    pub replay_cache: Option<usize>,
    /// Total per-request read budget in milliseconds (default 5000): a
    /// peer that trickles a request slower than this gets a typed `408`.
    #[serde(default)]
    pub read_budget_ms: Option<u64>,
}

impl ServiceConfig {
    /// A minimal config for the given facility geometry, everything else
    /// at defaults.
    #[must_use]
    pub fn for_facility(pdus: usize, servers_per_pdu: usize) -> ServiceConfig {
        ServiceConfig {
            pdus,
            servers_per_pdu,
            dc_headroom_percent: None,
            pue: None,
            controller: None,
            step_secs: None,
            deadline_ms: None,
            queue_depth: None,
            stale_after_ms: None,
            checkpoint_every: None,
            window_steps: None,
            workers: None,
            accept_queue: None,
            drain_deadline_ms: None,
            replay_cache: None,
            read_budget_ms: None,
        }
    }

    /// Parses and validates a config from JSON.
    pub fn from_json(text: &str) -> Result<ServiceConfig, SimError> {
        let config: ServiceConfig = serde_json::from_str(text)
            .map_err(|e| SimError::config(format!("malformed config: {e}")))?;
        config.validate()?;
        Ok(config)
    }

    /// Validates every field, including the embedded controller config's
    /// plausibility. Runs before the config is acted on — a service never
    /// boots, and a reload never swaps, on an invalid config.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.pdus == 0 {
            return Err(SimError::config("pdus must be at least 1"));
        }
        if self.servers_per_pdu == 0 {
            return Err(SimError::config("servers_per_pdu must be at least 1"));
        }
        if let Some(h) = self.dc_headroom_percent {
            if !h.is_finite() || h < 0.0 {
                return Err(SimError::config(
                    "dc_headroom_percent must be finite and non-negative",
                ));
            }
        }
        if let Some(pue) = self.pue {
            if !pue.is_finite() || pue < 1.0 {
                return Err(SimError::config("pue must be finite and at least 1"));
            }
        }
        if let Some(step) = self.step_secs {
            if !step.is_finite() || step <= 0.0 {
                return Err(SimError::config("step_secs must be finite and positive"));
            }
        }
        if self.deadline_ms == Some(0) {
            return Err(SimError::config("deadline_ms must be at least 1"));
        }
        if self.queue_depth == Some(0) {
            return Err(SimError::config("queue_depth must be at least 1"));
        }
        if self.stale_after_ms == Some(0) {
            return Err(SimError::config("stale_after_ms must be at least 1"));
        }
        if self.checkpoint_every == Some(0) {
            return Err(SimError::config("checkpoint_every must be at least 1"));
        }
        if self.workers == Some(0) {
            return Err(SimError::config("workers must be at least 1"));
        }
        if self.accept_queue == Some(0) {
            return Err(SimError::config("accept_queue must be at least 1"));
        }
        if self.drain_deadline_ms == Some(0) {
            return Err(SimError::config("drain_deadline_ms must be at least 1"));
        }
        if self.replay_cache == Some(0) {
            return Err(SimError::config("replay_cache must be at least 1"));
        }
        if self.read_budget_ms == Some(0) {
            return Err(SimError::config("read_budget_ms must be at least 1"));
        }
        if let Some(cfg) = &self.controller {
            if !cfg.burst_threshold.is_finite() || cfg.burst_threshold <= 0.0 {
                return Err(SimError::config(
                    "controller.burst_threshold must be finite and positive",
                ));
            }
            if !cfg.tes_minutes.is_finite() || cfg.tes_minutes <= 0.0 {
                return Err(SimError::config(
                    "controller.tes_minutes must be finite and positive",
                ));
            }
        }
        Ok(())
    }

    /// Builds the facility spec this config describes.
    #[must_use]
    pub fn spec(&self) -> DataCenterSpec {
        DataCenterSpec::paper_default()
            .with_scale(self.pdus, self.servers_per_pdu)
            .with_dc_headroom(Ratio::new(self.dc_headroom_percent.unwrap_or(10.0) / 100.0))
            .with_pue(self.pue.unwrap_or(1.53))
    }

    /// The controller configuration (defaulted).
    #[must_use]
    pub fn controller(&self) -> ControllerConfig {
        self.controller.clone().unwrap_or_default()
    }

    /// The control period in seconds (defaulted).
    #[must_use]
    pub fn step_secs(&self) -> f64 {
        self.step_secs.unwrap_or(DEFAULT_STEP_SECS)
    }

    /// The per-request decision deadline (defaulted).
    #[must_use]
    pub fn deadline_ms(&self) -> u64 {
        self.deadline_ms.unwrap_or(DEFAULT_DEADLINE_MS)
    }

    /// The bounded request-queue depth (defaulted).
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.queue_depth.unwrap_or(DEFAULT_QUEUE_DEPTH)
    }

    /// The stale-feed window (defaulted).
    #[must_use]
    pub fn stale_after_ms(&self) -> u64 {
        self.stale_after_ms.unwrap_or(DEFAULT_STALE_AFTER_MS)
    }

    /// Decisions between checkpoints (defaulted).
    #[must_use]
    pub fn checkpoint_every(&self) -> u64 {
        self.checkpoint_every.unwrap_or(DEFAULT_CHECKPOINT_EVERY)
    }

    /// The recent-step telemetry window (defaulted).
    #[must_use]
    pub fn window_steps(&self) -> usize {
        self.window_steps.unwrap_or(DEFAULT_WINDOW_STEPS)
    }

    /// The connection worker-pool size (defaulted).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers.unwrap_or(DEFAULT_WORKERS)
    }

    /// The pending-connection queue depth (defaulted).
    #[must_use]
    pub fn accept_queue(&self) -> usize {
        self.accept_queue.unwrap_or(DEFAULT_ACCEPT_QUEUE)
    }

    /// The graceful-drain deadline (defaulted).
    #[must_use]
    pub fn drain_deadline_ms(&self) -> u64 {
        self.drain_deadline_ms.unwrap_or(DEFAULT_DRAIN_DEADLINE_MS)
    }

    /// The replay-cache depth (defaulted).
    #[must_use]
    pub fn replay_cache(&self) -> usize {
        self.replay_cache.unwrap_or(DEFAULT_REPLAY_CACHE)
    }

    /// The total per-request read budget (defaulted).
    #[must_use]
    pub fn read_budget_ms(&self) -> u64 {
        self.read_budget_ms.unwrap_or(DEFAULT_READ_BUDGET_MS)
    }

    /// `true` if `other` describes the same plant — same geometry and
    /// controller configuration — so hot state exported under `self`
    /// imports cleanly under `other` (service-level knobs are free to
    /// differ).
    #[must_use]
    pub fn same_plant(&self, other: &ServiceConfig) -> bool {
        self.pdus == other.pdus
            && self.servers_per_pdu == other.servers_per_pdu
            && self.dc_headroom_percent == other.dc_headroom_percent
            && self.pue == other.pue
            && self.controller() == other.controller()
            && self.step_secs() == other.step_secs()
    }

    /// Fingerprint of the plant-defining inputs, used to tag hot-state
    /// checkpoints: a snapshot only restores into the facility it was
    /// exported from.
    #[must_use]
    pub fn plant_fingerprint(&self) -> u64 {
        fingerprint_of(&(
            self.pdus as u64,
            self.servers_per_pdu as u64,
            self.dc_headroom_percent.unwrap_or(10.0),
            self.pue.unwrap_or(1.53),
            serde_json::to_string(&self.controller()).unwrap_or_default(),
            self.step_secs(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_json_parses_with_defaults() {
        let config = ServiceConfig::from_json(r#"{"pdus":2,"servers_per_pdu":50}"#).unwrap();
        assert_eq!(config.pdus, 2);
        assert_eq!(config.deadline_ms(), DEFAULT_DEADLINE_MS);
        assert_eq!(config.queue_depth(), DEFAULT_QUEUE_DEPTH);
        assert_eq!(config.step_secs(), 1.0);
        assert_eq!(config.spec().total_servers(), 100);
    }

    #[test]
    fn invalid_fields_are_config_errors() {
        for (json, needle) in [
            (r#"{"pdus":0,"servers_per_pdu":50}"#, "pdus"),
            (r#"{"pdus":2,"servers_per_pdu":0}"#, "servers_per_pdu"),
            (r#"{"pdus":2,"servers_per_pdu":5,"pue":0.5}"#, "pue"),
            (
                r#"{"pdus":2,"servers_per_pdu":5,"deadline_ms":0}"#,
                "deadline_ms",
            ),
            (
                r#"{"pdus":2,"servers_per_pdu":5,"queue_depth":0}"#,
                "queue_depth",
            ),
            (
                r#"{"pdus":2,"servers_per_pdu":5,"step_secs":-1.0}"#,
                "step_secs",
            ),
            (
                r#"{"pdus":2,"servers_per_pdu":5,"checkpoint_every":0}"#,
                "checkpoint_every",
            ),
            (r#"{"pdus":2,"servers_per_pdu":5,"workers":0}"#, "workers"),
            (
                r#"{"pdus":2,"servers_per_pdu":5,"accept_queue":0}"#,
                "accept_queue",
            ),
            (
                r#"{"pdus":2,"servers_per_pdu":5,"drain_deadline_ms":0}"#,
                "drain_deadline_ms",
            ),
            (
                r#"{"pdus":2,"servers_per_pdu":5,"replay_cache":0}"#,
                "replay_cache",
            ),
            (
                r#"{"pdus":2,"servers_per_pdu":5,"read_budget_ms":0}"#,
                "read_budget_ms",
            ),
        ] {
            let err = ServiceConfig::from_json(json).unwrap_err();
            assert_eq!(err.exit_code(), 3, "{json}");
            assert!(err.to_string().contains(needle), "{json}: {err}");
        }
    }

    #[test]
    fn plant_fingerprint_ignores_service_knobs() {
        let a = ServiceConfig::for_facility(2, 50);
        let mut b = a.clone();
        b.deadline_ms = Some(10);
        b.queue_depth = Some(1);
        assert_eq!(a.plant_fingerprint(), b.plant_fingerprint());
        assert!(a.same_plant(&b));
        let mut c = a.clone();
        c.pdus = 3;
        assert_ne!(a.plant_fingerprint(), c.plant_fingerprint());
        assert!(!a.same_plant(&c));
    }
}
