//! Fault-injection schedules for the Data Center Sprinting plant.
//!
//! A [`FaultSchedule`] is a list of time-windowed [`FaultEvent`]s, each
//! degrading one part of the facility: UPS strings dropping out or fading,
//! the TES tank losing coolant or responding slowly, breakers derated
//! below nameplate, and the controller's sensors going noisy or stale.
//! The sprint controller queries [`FaultSchedule::active_at`] every control
//! period and applies the aggregate [`ActiveFaults`] view to its plant
//! models, so the same no-trip / no-overheat machinery that governs a
//! healthy facility also governs a degraded one.
//!
//! Schedules are plain data: seeded generation ([`FaultSchedule::random`])
//! is deterministic, and every type round-trips through serde.
//!
//! # Examples
//!
//! ```
//! use dcs_faults::{FaultEvent, FaultKind, FaultSchedule};
//! use dcs_units::Seconds;
//!
//! let schedule = FaultSchedule::new(vec![FaultEvent::new(
//!     Seconds::new(60.0),
//!     Seconds::new(300.0),
//!     FaultKind::BreakerDerated { factor: 0.8 },
//! )]);
//! assert!(!schedule.active_at(Seconds::ZERO).any());
//! let active = schedule.active_at(Seconds::new(120.0));
//! assert!(active.any());
//! assert!((active.breaker_factor - 0.8).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod chaos;

pub use chaos::{ChaosEvent, ChaosKind, ChaosSchedule};

use dcs_units::{Seconds, TempDelta};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

/// One kind of injected fault, with its severity parameters.
///
/// Physical kinds (`UpsStringFailure`, `UpsCapacityFade`, `TesValveLag`,
/// `TesCapacityLoss`, `BreakerDerated`) degrade the plant itself; sensor
/// kinds (`SensorNoise`, `StaleTelemetry`) degrade only what the
/// controller *observes* — real power measurement stays exact (§IV-A), so
/// safety is preserved while decisions get worse.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum FaultKind {
    /// A `fraction` of the per-server UPS strings drops offline: both the
    /// fleet's deliverable energy and its offload headcount shrink.
    UpsStringFailure {
        /// Fraction of strings lost, in `[0, 1]`.
        fraction: f64,
    },
    /// Battery ageing: the surviving strings deliver only `factor` of
    /// their rated energy.
    UpsCapacityFade {
        /// Remaining capacity factor, in `(0, 1]`.
        factor: f64,
    },
    /// The TES coolant valve responds with a first-order lag, throttling
    /// the achievable absorption rate within a control period.
    TesValveLag {
        /// Lag time constant in seconds, `>= 0`.
        seconds: f64,
    },
    /// Coolant loss: a `fraction` of the TES tank's stored heat-absorption
    /// budget is inaccessible.
    TesCapacityLoss {
        /// Fraction of capacity lost, in `[0, 1]`.
        fraction: f64,
    },
    /// Breakers derated below nameplate (ambient heat, ageing): every
    /// breaker behaves as if rated at `factor ×` its nameplate power.
    BreakerDerated {
        /// Effective rating factor, in `(0, 1]`.
        factor: f64,
    },
    /// Gaussian sensor noise (truncated at ±3σ) on the demand and
    /// temperature readings the controller plans with.
    SensorNoise {
        /// Standard deviation of the normalized-demand reading.
        demand_sigma: f64,
        /// Standard deviation of the temperature reading, in °C.
        temp_sigma: f64,
        /// Seed of the noise stream (deterministic replay).
        seed: u64,
    },
    /// The telemetry pipeline stalls: demand readings refresh only every
    /// `hold_steps` control periods.
    StaleTelemetry {
        /// Periods each reading is held for, `>= 1`.
        hold_steps: u32,
    },
}

impl FaultKind {
    /// Checks this kind's parameters, returning a description of the first
    /// violation. Serde-constructed values bypass [`FaultEvent::new`], so
    /// config loaders should run [`FaultSchedule::validate`] (which calls
    /// this) before simulating.
    ///
    /// # Errors
    ///
    /// Returns the constraint that failed (see each variant's field docs).
    pub fn check(&self) -> Result<(), String> {
        match *self {
            FaultKind::UpsStringFailure { fraction } | FaultKind::TesCapacityLoss { fraction } => {
                if !(0.0..=1.0).contains(&fraction) {
                    return Err("fraction must be in [0, 1]".into());
                }
            }
            FaultKind::UpsCapacityFade { factor } | FaultKind::BreakerDerated { factor } => {
                if !(factor > 0.0 && factor <= 1.0) {
                    return Err("factor must be in (0, 1]".into());
                }
            }
            FaultKind::TesValveLag { seconds } => {
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err("lag must be finite and non-negative".into());
                }
            }
            FaultKind::SensorNoise {
                demand_sigma,
                temp_sigma,
                ..
            } => {
                if !(demand_sigma.is_finite() && demand_sigma >= 0.0) {
                    return Err("demand sigma must be finite and non-negative".into());
                }
                if !(temp_sigma.is_finite() && temp_sigma >= 0.0) {
                    return Err("temperature sigma must be finite and non-negative".into());
                }
            }
            FaultKind::StaleTelemetry { hold_steps } => {
                if hold_steps < 1 {
                    return Err("hold steps must be at least 1".into());
                }
            }
        }
        Ok(())
    }

    fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }

    /// Returns `true` for the kinds that degrade the plant itself (as
    /// opposed to the controller's sensors). Physical faults strictly
    /// shrink the resources available, so a physically faulted run can
    /// never outperform its fault-free twin; sensor faults perturb
    /// *decisions* and carry no such monotonicity guarantee.
    #[must_use]
    pub fn is_physical(&self) -> bool {
        !matches!(
            self,
            FaultKind::SensorNoise { .. } | FaultKind::StaleTelemetry { .. }
        )
    }
}

/// One fault active over the half-open time window `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Window start (inclusive).
    pub start: Seconds,
    /// Window end (exclusive).
    pub end: Seconds,
    /// What is degraded, and by how much.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// Creates a fault event.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty or negative, or the kind's parameters
    /// are out of range (see each [`FaultKind`] variant).
    #[must_use]
    pub fn new(start: Seconds, end: Seconds, kind: FaultKind) -> FaultEvent {
        assert!(start >= Seconds::ZERO, "window start must be non-negative");
        assert!(end > start, "window must be non-empty");
        kind.validate();
        FaultEvent { start, end, kind }
    }

    /// Returns `true` if the window covers time `t`.
    #[must_use]
    pub fn covers(&self, t: Seconds) -> bool {
        self.start <= t && t < self.end
    }
}

/// The aggregate effect of every fault active at one instant, in the form
/// the plant models consume.
///
/// Factors compose across overlapping events: capacity-like factors
/// multiply, the breaker derate takes the most severe value, valve lags
/// add, and sensor parameters take the worst case.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActiveFaults {
    /// Fraction of UPS strings still online, in `[0, 1]`.
    pub ups_available_fraction: f64,
    /// Capacity-fade factor on the surviving strings, in `(0, 1]`.
    pub ups_capacity_factor: f64,
    /// Total TES valve lag time constant.
    pub tes_valve_lag: Seconds,
    /// Fraction of the TES budget still accessible, in `[0, 1]`.
    pub tes_capacity_factor: f64,
    /// Effective breaker-rating factor, in `(0, 1]`.
    pub breaker_factor: f64,
    /// Standard deviation of the demand reading (0 = exact).
    pub demand_sigma: f64,
    /// Standard deviation of the temperature reading in °C (0 = exact).
    pub temp_sigma: f64,
    /// Seed of the sensor-noise stream.
    pub noise_seed: u64,
    /// Periods each demand reading is held for (1 = fresh every period).
    pub stale_hold_steps: u32,
}

impl ActiveFaults {
    /// The no-fault aggregate: every factor 1, every sigma 0.
    #[must_use]
    pub fn nominal() -> ActiveFaults {
        ActiveFaults {
            ups_available_fraction: 1.0,
            ups_capacity_factor: 1.0,
            tes_valve_lag: Seconds::ZERO,
            tes_capacity_factor: 1.0,
            breaker_factor: 1.0,
            demand_sigma: 0.0,
            temp_sigma: 0.0,
            noise_seed: 0,
            stale_hold_steps: 1,
        }
    }

    /// Returns `true` if any fault is active (any field off-nominal).
    #[must_use]
    pub fn any(&self) -> bool {
        self != &ActiveFaults::nominal()
    }

    /// Returns the TES absorption-rate factor a first-order valve lag
    /// imposes on a control period of `dt`: the average achievable flow is
    /// `dt / (dt + lag)` of the commanded flow (1 when there is no lag).
    #[must_use]
    pub fn tes_rate_factor(&self, dt: Seconds) -> f64 {
        let lag = self.tes_valve_lag.as_secs();
        if lag <= 0.0 {
            return 1.0;
        }
        dt.as_secs() / (dt.as_secs() + lag)
    }
}

impl Default for ActiveFaults {
    fn default() -> ActiveFaults {
        ActiveFaults::nominal()
    }
}

/// A deterministic, serde-round-trippable schedule of fault events.
///
/// See the [crate documentation](crate) for an example.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// The empty schedule as a constant, so fault-free callers can borrow a
    /// `&'static FaultSchedule` instead of allocating one per run.
    pub const NONE: FaultSchedule = FaultSchedule { events: Vec::new() };

    /// The empty schedule: a facility with no injected faults. Running a
    /// simulation under this schedule reproduces the fault-free telemetry
    /// exactly.
    #[must_use]
    pub fn none() -> FaultSchedule {
        FaultSchedule { events: Vec::new() }
    }

    /// Creates a schedule from explicit events.
    ///
    /// # Panics
    ///
    /// Panics if any event's parameters are out of range (events built
    /// with [`FaultEvent::new`] are always valid).
    #[must_use]
    pub fn new(events: Vec<FaultEvent>) -> FaultSchedule {
        for e in &events {
            assert!(
                e.start >= Seconds::ZERO,
                "window start must be non-negative"
            );
            assert!(e.end > e.start, "window must be non-empty");
            e.kind.validate();
        }
        FaultSchedule { events }
    }

    /// Checks every event's window and parameters, returning the first
    /// violation with its event index.
    ///
    /// Deserialized schedules bypass the panicking constructors, so config
    /// loaders should call this before handing a schedule to a controller —
    /// an out-of-range parameter otherwise panics mid-simulation.
    ///
    /// # Errors
    ///
    /// Returns `"event <i>: <constraint>"` for the first invalid event.
    pub fn validate(&self) -> Result<(), String> {
        for (i, e) in self.events.iter().enumerate() {
            if e.start < Seconds::ZERO {
                return Err(format!("event {i}: window start must be non-negative"));
            }
            if e.end <= e.start {
                return Err(format!("event {i}: window must be non-empty"));
            }
            e.kind.check().map_err(|msg| format!("event {i}: {msg}"))?;
        }
        Ok(())
    }

    /// Returns the events.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Returns `true` if the schedule has no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Returns `true` if every event is a physical (plant) fault — see
    /// [`FaultKind::is_physical`].
    #[must_use]
    pub fn is_physical(&self) -> bool {
        self.events.iter().all(|e| e.kind.is_physical())
    }

    /// Returns the aggregate effect of the events active at time `t`.
    #[must_use]
    pub fn active_at(&self, t: Seconds) -> ActiveFaults {
        let mut acc = ActiveFaults::nominal();
        for event in self.events.iter().filter(|e| e.covers(t)) {
            match event.kind {
                FaultKind::UpsStringFailure { fraction } => {
                    acc.ups_available_fraction *= 1.0 - fraction;
                }
                FaultKind::UpsCapacityFade { factor } => {
                    acc.ups_capacity_factor *= factor;
                }
                FaultKind::TesValveLag { seconds } => {
                    acc.tes_valve_lag += Seconds::new(seconds);
                }
                FaultKind::TesCapacityLoss { fraction } => {
                    acc.tes_capacity_factor *= 1.0 - fraction;
                }
                FaultKind::BreakerDerated { factor } => {
                    acc.breaker_factor = acc.breaker_factor.min(factor);
                }
                FaultKind::SensorNoise {
                    demand_sigma,
                    temp_sigma,
                    seed,
                } => {
                    if demand_sigma > acc.demand_sigma || temp_sigma > acc.temp_sigma {
                        acc.noise_seed = seed;
                    }
                    acc.demand_sigma = acc.demand_sigma.max(demand_sigma);
                    acc.temp_sigma = acc.temp_sigma.max(temp_sigma);
                }
                FaultKind::StaleTelemetry { hold_steps } => {
                    acc.stale_hold_steps = acc.stale_hold_steps.max(hold_steps);
                }
            }
        }
        acc
    }

    /// Generates a deterministic randomized schedule of 1–3 windowed
    /// events over `[0, duration)`, drawing from every fault kind with
    /// severities bounded away from total failure (so a provisioned
    /// facility retains a survivable operating point).
    ///
    /// The same `(seed, duration)` always yields the same schedule.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is not strictly positive and finite.
    #[must_use]
    pub fn random(seed: u64, duration: Seconds) -> FaultSchedule {
        let mut rng = StdRng::seed_from_u64(seed);
        let count = rng.gen_range(1..=3usize);
        let events = (0..count)
            .map(|_| Self::random_event(&mut rng, duration, 7))
            .collect();
        FaultSchedule::new(events)
    }

    /// Generates a deterministic randomized schedule of 1–2 *physical*
    /// faults (no sensor faults), each spanning the whole of
    /// `[0, duration)`.
    ///
    /// Physical whole-run faults strictly shrink the plant's resources at
    /// every step, so a run under this schedule never outperforms its
    /// fault-free twin — the monotone-degradation property the sim test
    /// suite asserts. Windowed or sensor faults carry no such guarantee
    /// (a mid-run recovery or a low-balling sensor can shift energy
    /// spending later in the trace).
    ///
    /// # Panics
    ///
    /// Panics if `duration` is not strictly positive and finite.
    #[must_use]
    pub fn random_physical(seed: u64, duration: Seconds) -> FaultSchedule {
        assert!(
            duration > Seconds::ZERO && !duration.is_never(),
            "duration must be positive and finite"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let count = rng.gen_range(1..=2usize);
        let events = (0..count)
            .map(|_| {
                let kind = Self::random_kind(&mut rng, 5);
                FaultEvent::new(Seconds::ZERO, duration, kind)
            })
            .collect();
        FaultSchedule::new(events)
    }

    fn random_event(rng: &mut StdRng, duration: Seconds, kinds: usize) -> FaultEvent {
        assert!(
            duration > Seconds::ZERO && !duration.is_never(),
            "duration must be positive and finite"
        );
        let d = duration.as_secs();
        let start = rng.gen_range(0.0..0.5 * d);
        let len = rng.gen_range(0.2 * d..0.5 * d);
        let end = (start + len).min(d);
        let kind = Self::random_kind(rng, kinds);
        FaultEvent::new(Seconds::new(start), Seconds::new(end), kind)
    }

    fn random_kind(rng: &mut StdRng, kinds: usize) -> FaultKind {
        match rng.gen_range(0..kinds) {
            0 => FaultKind::UpsStringFailure {
                fraction: rng.gen_range(0.1..0.5),
            },
            1 => FaultKind::UpsCapacityFade {
                factor: rng.gen_range(0.6..0.95),
            },
            2 => FaultKind::TesValveLag {
                seconds: rng.gen_range(2.0..20.0),
            },
            3 => FaultKind::TesCapacityLoss {
                fraction: rng.gen_range(0.1..0.5),
            },
            4 => FaultKind::BreakerDerated {
                factor: rng.gen_range(0.78..0.95),
            },
            5 => FaultKind::SensorNoise {
                demand_sigma: rng.gen_range(0.02..0.15),
                temp_sigma: rng.gen_range(0.05..0.5),
                seed: rng.next_u64(),
            },
            _ => FaultKind::StaleTelemetry {
                hold_steps: rng.gen_range(2..30u32),
            },
        }
    }
}

/// The deterministic sensor-noise stream the controller draws from while a
/// [`FaultKind::SensorNoise`] window is active.
#[derive(Debug, Clone)]
struct SensorRng {
    rng: StdRng,
}

impl SensorRng {
    /// Creates a stream from a seed.
    #[must_use]
    fn new(seed: u64) -> SensorRng {
        SensorRng {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Samples a zero-mean Gaussian with standard deviation `sigma`,
    /// truncated (by rejection) at ±3σ. The truncation bounds the
    /// controller's worst-case observation error, which is what lets a
    /// fixed guard band restore the no-overheat guarantee under noise.
    fn truncated_gauss(&mut self, sigma: f64) -> f64 {
        if sigma <= 0.0 {
            return 0.0;
        }
        loop {
            // Box–Muller on (0, 1] × [0, 1).
            let u1: f64 = 1.0 - self.rng.gen_range(0.0..1.0);
            let u2: f64 = self.rng.gen_range(0.0..1.0);
            let z =
                (-2.0 * u1.max(f64::MIN_POSITIVE).ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            if z.abs() <= 3.0 {
                return z * sigma;
            }
        }
    }
}

/// Everything the controller's sensors report for one control period: the
/// aggregate fault state, the (possibly noisy/stale) demand reading, and the
/// pessimistic thermal guard band.
///
/// Computed once per step by a [`FaultObserver`] and shared by every lane of
/// a batched run — the observation depends only on the demand stream and the
/// fault schedule, never on the lane's sprint bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// The aggregate fault state at this step.
    pub active: ActiveFaults,
    /// The demand reading the controller's decisions see.
    pub observed: f64,
    /// Pessimistic margin added to the room-temperature reading while
    /// temperature sensors are noisy.
    pub thermal_bias: TempDelta,
}

/// The sensor pipeline as a standalone state machine: noise stream keyed by
/// the active window's seed, plus the stale-telemetry sample-and-hold.
///
/// One observer fed the per-step demands produces the exact reading sequence
/// an embedded controller pipeline would, so N lanes can share a single
/// observer pass.
#[derive(Debug, Clone, Default)]
pub struct FaultObserver {
    rng: Option<(u64, SensorRng)>,
    stale: Option<(f64, u32)>,
}

impl FaultObserver {
    /// Creates an observer with no noise stream and no held sample.
    #[must_use]
    pub fn new() -> FaultObserver {
        FaultObserver::default()
    }

    /// Returns the noise stream for `seed`, starting a fresh one whenever a
    /// new fault window (with a new seed) becomes active.
    fn rng_for(&mut self, seed: u64) -> &mut SensorRng {
        match self.rng {
            Some((s, _)) if s == seed => {}
            _ => self.rng = Some((seed, SensorRng::new(seed))),
        }
        &mut self.rng.as_mut().expect("just set").1
    }

    /// Produces this step's observation from the true demand and the active
    /// fault state. Draw order is fixed — demand noise first, thermal bias
    /// second, from the same stream — so observations are reproducible.
    pub fn observe(&mut self, demand: f64, active: &ActiveFaults) -> Observation {
        let mut observed = demand;
        if active.demand_sigma > 0.0 {
            let noise = self
                .rng_for(active.noise_seed)
                .truncated_gauss(active.demand_sigma);
            observed = (demand + noise).max(0.0);
        }
        if active.stale_hold_steps > 1 {
            let (held, age) = match self.stale.take() {
                Some((held, age)) if age + 1 < active.stale_hold_steps => (held, age + 1),
                _ => (observed, 0),
            };
            self.stale = Some((held, age));
            observed = held;
        } else {
            self.stale = None;
        }
        let thermal_bias = if active.temp_sigma <= 0.0 {
            TempDelta::ZERO
        } else {
            let noise = self
                .rng_for(active.noise_seed)
                .truncated_gauss(active.temp_sigma);
            TempDelta::new(noise + 3.0 * active.temp_sigma).max_zero()
        };
        Observation {
            active: *active,
            observed,
            thermal_bias,
        }
    }
}

/// Per-step fault-window lookups for a fixed control period, resolved once
/// and shared across batched lanes.
///
/// Times are accumulated stepwise (`now += dt`) from zero so the lookups are
/// bitwise-identical to a controller advancing its own clock.
#[derive(Debug, Clone)]
pub struct FaultTimeline {
    active: Vec<ActiveFaults>,
    nominal_from: usize,
}

impl FaultTimeline {
    /// Resolves `schedule` at each of `steps` periods of length `dt`.
    #[must_use]
    pub fn new(schedule: &FaultSchedule, dt: Seconds, steps: usize) -> FaultTimeline {
        let mut active = Vec::with_capacity(steps);
        let mut now = Seconds::ZERO;
        for _ in 0..steps {
            active.push(schedule.active_at(now));
            now += dt;
        }
        let nominal_from = active
            .iter()
            .rposition(ActiveFaults::any)
            .map_or(0, |last| last + 1);
        FaultTimeline {
            active,
            nominal_from,
        }
    }

    /// The per-step aggregate fault states, in step order.
    #[must_use]
    pub fn active(&self) -> &[ActiveFaults] {
        &self.active
    }

    /// The first step index from which every remaining step is
    /// fault-nominal (equal to `len` if the last step has an active fault).
    #[must_use]
    pub fn nominal_from(&self) -> usize {
        self.nominal_from
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_catches_deserialized_garbage() {
        // Serde bypasses the panicking constructors; validate() is the
        // fallible gate a config loader runs instead.
        let bad: FaultSchedule = serde_json::from_str(
            r#"{"events":[{"start":0.0,"end":10.0,
                "kind":{"kind":"breaker_derated","factor":-2.0}}]}"#,
        )
        .expect("deserializes without range checks");
        let err = bad.validate().expect_err("must be rejected");
        assert_eq!(err, "event 0: factor must be in (0, 1]");

        let inverted: FaultSchedule = serde_json::from_str(
            r#"{"events":[{"start":500.0,"end":100.0,
                "kind":{"kind":"breaker_derated","factor":0.9}}]}"#,
        )
        .expect("deserializes without range checks");
        let err = inverted.validate().expect_err("must be rejected");
        assert_eq!(err, "event 0: window must be non-empty");

        assert!(FaultSchedule::none().validate().is_ok());
        assert!(schedule().validate().is_ok());
    }

    fn schedule() -> FaultSchedule {
        FaultSchedule::new(vec![
            FaultEvent::new(
                Seconds::new(10.0),
                Seconds::new(20.0),
                FaultKind::UpsStringFailure { fraction: 0.5 },
            ),
            FaultEvent::new(
                Seconds::new(15.0),
                Seconds::new(30.0),
                FaultKind::UpsCapacityFade { factor: 0.8 },
            ),
            FaultEvent::new(
                Seconds::new(15.0),
                Seconds::new(30.0),
                FaultKind::BreakerDerated { factor: 0.9 },
            ),
        ])
    }

    #[test]
    fn none_is_nominal_everywhere() {
        let s = FaultSchedule::none();
        assert!(s.is_empty());
        for t in 0..100 {
            assert!(!s.active_at(Seconds::new(f64::from(t))).any());
        }
    }

    #[test]
    fn windows_are_half_open_and_compose() {
        let s = schedule();
        assert!(!s.active_at(Seconds::new(9.9)).any());
        let at_10 = s.active_at(Seconds::new(10.0));
        assert!((at_10.ups_available_fraction - 0.5).abs() < 1e-12);
        assert_eq!(at_10.ups_capacity_factor, 1.0);
        // Overlap: both UPS faults active, plus the breaker derate.
        let at_17 = s.active_at(Seconds::new(17.0));
        assert!((at_17.ups_available_fraction - 0.5).abs() < 1e-12);
        assert!((at_17.ups_capacity_factor - 0.8).abs() < 1e-12);
        assert!((at_17.breaker_factor - 0.9).abs() < 1e-12);
        // The string-failure window ends at 20 (exclusive).
        let at_20 = s.active_at(Seconds::new(20.0));
        assert_eq!(at_20.ups_available_fraction, 1.0);
        assert!((at_20.ups_capacity_factor - 0.8).abs() < 1e-12);
        assert!(!s.active_at(Seconds::new(30.0)).any());
    }

    #[test]
    fn valve_lags_add_and_shrink_the_rate_factor() {
        let s = FaultSchedule::new(vec![
            FaultEvent::new(
                Seconds::ZERO,
                Seconds::new(10.0),
                FaultKind::TesValveLag { seconds: 2.0 },
            ),
            FaultEvent::new(
                Seconds::ZERO,
                Seconds::new(10.0),
                FaultKind::TesValveLag { seconds: 3.0 },
            ),
        ]);
        let active = s.active_at(Seconds::new(1.0));
        assert_eq!(active.tes_valve_lag, Seconds::new(5.0));
        let f = active.tes_rate_factor(Seconds::new(5.0));
        assert!((f - 0.5).abs() < 1e-12);
        assert_eq!(
            ActiveFaults::nominal().tes_rate_factor(Seconds::new(1.0)),
            1.0
        );
    }

    #[test]
    fn random_is_deterministic_and_valid() {
        let d = Seconds::from_minutes(30.0);
        for seed in 0..50u64 {
            let a = FaultSchedule::random(seed, d);
            let b = FaultSchedule::random(seed, d);
            assert_eq!(a, b);
            assert!(!a.is_empty());
            for e in a.events() {
                assert!(e.start >= Seconds::ZERO && e.end <= d && e.end > e.start);
            }
        }
        assert_ne!(
            FaultSchedule::random(1, d),
            FaultSchedule::random(2, d),
            "different seeds should differ"
        );
    }

    #[test]
    fn random_physical_spans_the_run_and_has_no_sensor_faults() {
        let d = Seconds::from_minutes(20.0);
        for seed in 0..50u64 {
            let s = FaultSchedule::random_physical(seed, d);
            assert!(s.is_physical());
            for e in s.events() {
                assert_eq!(e.start, Seconds::ZERO);
                assert_eq!(e.end, d);
            }
        }
    }

    #[test]
    fn serde_round_trip() {
        let s = schedule();
        let json = serde_json::to_string(&s).unwrap();
        let back: FaultSchedule = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
        // Every kind round-trips, including the tagged sensor variants.
        let all = FaultSchedule::new(vec![
            FaultEvent::new(
                Seconds::ZERO,
                Seconds::new(1.0),
                FaultKind::TesValveLag { seconds: 4.0 },
            ),
            FaultEvent::new(
                Seconds::ZERO,
                Seconds::new(1.0),
                FaultKind::TesCapacityLoss { fraction: 0.25 },
            ),
            FaultEvent::new(
                Seconds::ZERO,
                Seconds::new(1.0),
                FaultKind::SensorNoise {
                    demand_sigma: 0.1,
                    temp_sigma: 0.2,
                    seed: 42,
                },
            ),
            FaultEvent::new(
                Seconds::ZERO,
                Seconds::new(1.0),
                FaultKind::StaleTelemetry { hold_steps: 5 },
            ),
        ]);
        let json = serde_json::to_string(&all).unwrap();
        let back: FaultSchedule = serde_json::from_str(&json).unwrap();
        assert_eq!(all, back);
    }

    #[test]
    fn sensor_rng_is_deterministic_and_truncated() {
        let mut a = SensorRng::new(7);
        let mut b = SensorRng::new(7);
        let mut spread = 0.0f64;
        for _ in 0..2000 {
            let x = a.truncated_gauss(0.1);
            assert_eq!(x, b.truncated_gauss(0.1));
            assert!(x.abs() <= 0.3 + 1e-12, "sample {x} beyond 3 sigma");
            spread = spread.max(x.abs());
        }
        assert!(spread > 0.05, "noise looks degenerate: max |x| = {spread}");
        assert_eq!(SensorRng::new(1).truncated_gauss(0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "window must be non-empty")]
    fn empty_window_panics() {
        let _ = FaultEvent::new(
            Seconds::new(5.0),
            Seconds::new(5.0),
            FaultKind::BreakerDerated { factor: 0.9 },
        );
    }

    #[test]
    #[should_panic(expected = "factor must be in (0, 1]")]
    fn bad_factor_panics() {
        let _ = FaultEvent::new(
            Seconds::ZERO,
            Seconds::new(1.0),
            FaultKind::BreakerDerated { factor: 0.0 },
        );
    }
}
