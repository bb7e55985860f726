//! The three-phase sprinting controller.
//!
//! The controller is a composition that drivers assemble themselves: a
//! [`crate::FacilityState`] (the physical plant) driven through
//! [`crate::step_cycle`] by a [`SprintPolicy`] (the paper's three-phase
//! decision logic). The physics live in exactly one place —
//! `FacilityState::advance` — and this module only decides.

use crate::budget::EnergyBudget;
use crate::facility::{Candidate, CoreDecision, FacilityState, StepInput};
use crate::kernel::{search_largest_feasible, StepPolicy};
use crate::{PowerCurve, SprintInfo, SprintStrategy, StrategyContext};
use dcs_power::DataCenterSpec;
use dcs_units::{Celsius, Charge, Energy, Power, Ratio, Seconds};
use dcs_ups::Chemistry;
use serde::{Deserialize, Serialize};

/// Which phase of the methodology the facility is in (for telemetry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase {
    /// Not sprinting.
    Normal,
    /// Phase 1: sprinting on CB overload tolerance alone.
    CbOnly,
    /// Phase 2: UPS batteries are carrying part of the load.
    Ups,
    /// Phase 3: the TES tank is absorbing heat (UPS may still be active).
    Tes,
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Phase::Normal => write!(f, "normal"),
            Phase::CbOnly => write!(f, "phase 1 (CB)"),
            Phase::Ups => write!(f, "phase 2 (UPS)"),
            Phase::Tes => write!(f, "phase 3 (TES)"),
        }
    }
}

/// Why the controller served fewer cores than the demand (and the
/// strategy's bound) asked for, reported in [`StepRecord::shed_reason`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShedReason {
    /// The breaker reserve rule bound the core count (Phase-1/2 power
    /// feasibility, after UPS relief).
    Power,
    /// The cooling plan was infeasible: the TES could not absorb the
    /// sprint's heat gap (depleted, flow-limited, or faulted).
    Thermal,
    /// The degraded-mode backstop: even the normal core count risked
    /// accumulating trip progress, so the controller shed below normal.
    Emergency,
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShedReason::Power => write!(f, "power"),
            ShedReason::Thermal => write!(f, "thermal"),
            ShedReason::Emergency => write!(f, "emergency"),
        }
    }
}

/// Controller configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Minimum remaining-time-before-trip the controller preserves on every
    /// breaker (the paper's user-defined "1 minute" parameter).
    pub reserve: Seconds,
    /// UPS battery chemistry.
    pub ups_chemistry: Chemistry,
    /// Per-server UPS battery rating (the paper's 0.5 Ah default).
    pub ups_rating: Charge,
    /// TES sizing: minutes of full cooling load at peak normal server power
    /// (the paper's 12 minutes).
    pub tes_minutes: f64,
    /// Demand level above which a burst (and sprint) begins.
    pub burst_threshold: f64,
    /// Recharge UPS/TES when the facility is quiet.
    pub recharge_when_quiet: bool,
    /// Per-server UPS recharge power when quiet.
    pub ups_recharge_per_server: Power,
    /// TES recharge heat rate as a fraction of the chiller design capacity.
    pub tes_recharge_fraction: f64,
    /// During Phase 3, the fraction of the *chiller-servable* heat the TES
    /// additionally takes over (on top of the sprint's heat gap, which it
    /// must cover entirely) to cut chiller power and relieve the DC-level
    /// breaker.
    pub tes_replace_fraction: f64,
    /// Phase 3 engages when the room's time-to-threshold at the current
    /// heat gap falls to this horizon. On a fresh room with a full gap
    /// this reproduces the paper's "activate TES at the 5th minute" rule
    /// (the calibrated room hits the threshold at 6 minutes); unlike the
    /// paper's open-loop schedule it stays safe when consecutive bursts
    /// leave residual heat.
    pub thermal_horizon: Seconds,
    /// §V-C's strict rule: "If the TES capacity is used up, we need to
    /// terminate the sprinting process ... decreasing the number of active
    /// cores to the normal level". When `false` (the default) the
    /// controller instead sheds cores only as far as thermal and power
    /// feasibility require, which strictly dominates — see the
    /// `ablation_termination` bench for the comparison.
    pub terminate_on_tes_exhaustion: bool,
}

impl Default for ControllerConfig {
    fn default() -> ControllerConfig {
        ControllerConfig {
            reserve: Seconds::new(60.0),
            ups_chemistry: Chemistry::LithiumIronPhosphate,
            ups_rating: Charge::from_amp_hours(0.5),
            tes_minutes: 12.0,
            burst_threshold: 1.0,
            recharge_when_quiet: true,
            ups_recharge_per_server: Power::from_watts(5.0),
            tes_recharge_fraction: 0.1,
            tes_replace_fraction: 0.25,
            thermal_horizon: Seconds::new(60.0),
            terminate_on_tes_exhaustion: false,
        }
    }
}

/// Telemetry produced by one controller step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StepRecord {
    /// Simulation time at the *start* of the step.
    pub time: Seconds,
    /// Offered normalized demand.
    pub demand: f64,
    /// Served normalized demand (the paper's instantaneous performance).
    pub served: f64,
    /// Active cores per server.
    pub cores: u32,
    /// Sprinting degree actually running.
    pub degree: Ratio,
    /// The strategy's upper bound this period.
    pub upper_bound: Ratio,
    /// Facility IT power.
    pub it_power: Power,
    /// Facility cooling electric power.
    pub cooling_power: Power,
    /// Power carried by UPS batteries (removed from the PDUs).
    pub ups_power: Power,
    /// Heat absorbed by the TES tank.
    pub tes_heat: Power,
    /// PDU-delivered power above the facility's peak normal IT power.
    pub cb_extra_power: Power,
    /// Current methodology phase.
    pub phase: Phase,
    /// Room air temperature after the step.
    pub temperature: Celsius,
    /// `true` while a sprint is active.
    pub sprinting: bool,
    /// `true` if any breaker tripped this step (a safety violation — the
    /// controlled sprint is designed to make this impossible).
    pub tripped: bool,
    /// `true` if the room reached its thermal threshold this step.
    pub overheated: bool,
    /// `true` while any injected fault window covers this step.
    pub fault_active: bool,
    /// Why the controller served fewer cores than demanded, if it did.
    pub shed_reason: Option<ShedReason>,
}

/// The mutable sprint-lifecycle state of a [`SprintPolicy`], detached
/// from the strategy object: the latches, the shared demand history, and
/// the in-flight sprint's accounting. Everything a live service must
/// persist so a restarted policy resumes the lifecycle where it stopped.
///
/// Strategy-internal state (e.g. the [`crate::Heuristic`]'s demand
/// statistics) is *not* captured: the service restores policies whose
/// strategies are stateless ([`crate::Greedy`], [`crate::FixedBound`]) or
/// re-prime themselves from the observed demand stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PolicyHotState {
    /// Whether a sprint is currently active.
    pub sprint_active: bool,
    /// Highest demand seen across the run.
    pub max_demand_seen: f64,
    /// Permanent safety-termination latch.
    pub terminated: bool,
    /// §V-C hold latch: sprinting stays off until the burst passes.
    pub hold_until_quiet: bool,
    /// The in-flight (or last) sprint's accounting, if one ever started.
    pub run: Option<RunHotState>,
}

/// Cumulative sprint bookkeeping across consecutive bursts, serializable
/// so a restarted policy resumes it.
///
/// The paper's burst statistics are aggregates: the MS trace's "real burst
/// duration" of 16.2 minutes sums over four consecutive bursts, and the
/// energy stores drain across all of them. The strategies therefore see
/// cumulative sprint time, cumulative average degree, and one energy
/// budget fixed when the first burst arrives.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunHotState {
    /// Time integral of the sprinting degree (for the average degree).
    pub degree_integral: f64,
    /// Seconds of sprinting elapsed in this run.
    pub sprint_elapsed: f64,
    /// The sprint's additional-energy budget and its consumption.
    pub budget: EnergyBudget,
    /// Whether Phase 3 ever engaged (for the strict termination rule).
    pub tes_engaged: bool,
}

/// The paper's three-phase decision logic as a [`StepPolicy`] over
/// [`FacilityState`]: burst detection, the strategy's sprinting-degree
/// bound, the core-count feasibility search, the emergency-shed backstop,
/// and the post-step termination latches and budget debits.
///
/// The policy owns no physics; everything it reads comes from the
/// immutable facility borrow [`StepPolicy::decide`] receives.
#[derive(Debug)]
pub struct SprintPolicy {
    strategy: Box<dyn SprintStrategy>,
    power_curve: PowerCurve,
    sprint_active: bool,
    run_state: Option<RunHotState>,
    /// Highest demand seen so far across the whole run: consecutive bursts
    /// share one demand history (the strategies' burst-degree estimate).
    max_demand_seen: f64,
    terminated: bool,
    /// Strict §V-C termination latch: sprinting stays off until the
    /// current burst has passed.
    hold_until_quiet: bool,
    /// Energy budget pre-computed by a batched driver for the sprint the
    /// *next* step starts; consumed (and checked) by the lifecycle.
    primed_budget: Option<Energy>,
    /// Memoized demand→cores inversion keyed by the observed-demand bits:
    /// plateau bursts re-ask the sublinear scaling model the same question
    /// every period, and the one-entry memo answers with the stored bits
    /// instead of re-running its `powf`. Derived state — valid for any
    /// policy driving the same server spec, which every clone of this
    /// policy does — and never persisted.
    needed_cores_memo: Option<(u64, u32)>,
}

impl std::fmt::Debug for dyn SprintStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

impl SprintPolicy {
    /// Builds the policy in its initial (quiet, unterminated) state.
    #[must_use]
    pub fn new(strategy: Box<dyn SprintStrategy>, spec: &DataCenterSpec) -> SprintPolicy {
        SprintPolicy {
            strategy,
            power_curve: PowerCurve::new(spec.server().clone(), spec.total_servers()),
            sprint_active: false,
            run_state: None,
            max_demand_seen: 0.0,
            terminated: false,
            hold_until_quiet: false,
            primed_budget: None,
            needed_cores_memo: None,
        }
    }

    /// Returns the strategy name.
    #[must_use]
    pub fn strategy_name(&self) -> &str {
        self.strategy.name()
    }

    /// `true` while the policy considers a sprint active.
    #[must_use]
    pub fn sprint_active(&self) -> bool {
        self.sprint_active
    }

    /// Exports the policy's sprint-lifecycle state as a serializable
    /// snapshot. See [`PolicyHotState`] for what is (and is not) captured.
    #[must_use]
    pub fn export_hot_state(&self) -> PolicyHotState {
        PolicyHotState {
            sprint_active: self.sprint_active,
            max_demand_seen: self.max_demand_seen,
            terminated: self.terminated,
            hold_until_quiet: self.hold_until_quiet,
            run: self.run_state,
        }
    }

    /// Replaces the policy's sprint-lifecycle state with a previously
    /// exported snapshot. With a stateless strategy (e.g.
    /// [`crate::Greedy`]) the restored policy decides bit-identically to
    /// the policy that produced the export.
    pub fn import_hot_state(&mut self, hot: PolicyHotState) {
        self.sprint_active = hot.sprint_active;
        self.max_demand_seen = hot.max_demand_seen;
        self.terminated = hot.terminated;
        self.hold_until_quiet = hot.hold_until_quiet;
        self.run_state = hot.run;
        self.primed_budget = None;
    }

    /// Clones the policy mid-run with a replacement strategy, for forking
    /// batched lanes off a shared prefix.
    ///
    /// The caller is responsible for strategy-state equivalence: the
    /// replacement must be in the state its own `observe`/`on_sprint_start`
    /// calls over the prefix would have produced (trivially true for
    /// stateless strategies such as `FixedBound`).
    #[must_use]
    pub fn clone_with_strategy(&self, strategy: Box<dyn SprintStrategy>) -> SprintPolicy {
        SprintPolicy {
            strategy,
            power_curve: self.power_curve.clone(),
            sprint_active: self.sprint_active,
            run_state: self.run_state,
            max_demand_seen: self.max_demand_seen,
            terminated: self.terminated,
            hold_until_quiet: self.hold_until_quiet,
            primed_budget: self.primed_budget,
            needed_cores_memo: self.needed_cores_memo,
        }
    }

    /// Primes the energy budget the next sprint start will fix. The budget
    /// depends only on the plant and the step's deratings, never on the
    /// bound, so a batched driver computes it once at the fork
    /// ([`FacilityState::total_energy_budget`]) for every lane. Debug builds
    /// check it against a fresh computation when consumed.
    pub fn prime_energy_budget(&mut self, total: Energy) {
        self.primed_budget = Some(total);
    }

    /// The demand→cores inversion through the one-entry memo (see
    /// [`SprintPolicy::needed_cores_memo`]).
    fn needed_cores(&mut self, server: &dcs_server::ServerSpec, observed: f64) -> u32 {
        let key = observed.to_bits();
        if let Some((k, v)) = self.needed_cores_memo {
            if k == key {
                return v;
            }
        }
        let v = server.cores_for_demand(Ratio::new(observed));
        self.needed_cores_memo = Some((key, v));
        v
    }
}

impl<'a> StepPolicy<FacilityState<'a>> for SprintPolicy {
    #[inline]
    fn decide(&mut self, state: &FacilityState<'a>, input: &StepInput) -> CoreDecision {
        let demand = input.demand;
        let dt = input.dt;
        let observed = input.observation.observed;
        let server = state.spec().server();
        let config = state.config();
        let normal_cores = state.normal_cores();
        let n_servers = state.n_servers();
        let max_degree = state.max_degree();

        if observed <= config.burst_threshold {
            self.hold_until_quiet = false;
        }
        let in_burst =
            observed > config.burst_threshold && !self.terminated && !self.hold_until_quiet;

        self.strategy.observe(observed, dt);

        // --- Sprint lifecycle -------------------------------------------
        if in_burst && !self.sprint_active && self.run_state.is_none() {
            // First burst of the run: fix the energy budget and brief the
            // strategy. Consecutive bursts share budget and stats. A
            // batched driver may have primed the (lane-independent) budget
            // so the integration runs once per batch instead of per lane.
            let total = match self.primed_budget.take() {
                Some(primed) => {
                    debug_assert_eq!(
                        primed,
                        state.total_energy_budget(),
                        "primed budget must match a fresh computation"
                    );
                    primed
                }
                None => state.total_energy_budget(),
            };
            let budget = EnergyBudget::new(total);
            let info = SprintInfo {
                total_energy_budget: budget.total(),
                power_curve: self.power_curve.clone(),
                max_degree,
            };
            self.strategy.on_sprint_start(&info);
            self.run_state = Some(RunHotState {
                degree_integral: 0.0,
                sprint_elapsed: 0.0,
                budget,
                tes_engaged: false,
            });
        }
        self.sprint_active = in_burst;

        // --- Strategy bound ----------------------------------------------
        self.max_demand_seen = self.max_demand_seen.max(observed);
        let upper_bound = if self.sprint_active {
            let run = self
                .run_state
                .as_ref()
                .expect("run state exists while sprinting");
            // Before any sprint time has elapsed the average degree is
            // undefined; the paper's Eq. 1 then reads BDu_e = BDu_p, i.e.
            // SDe_avg starts at SDe_max.
            let avg_degree = if run.sprint_elapsed > 0.0 {
                Ratio::new((run.degree_integral / run.sprint_elapsed).max(1.0))
            } else {
                max_degree
            };
            let ctx = StrategyContext {
                since_burst_start: Seconds::new(run.sprint_elapsed),
                demand: observed,
                max_demand_seen: self.max_demand_seen,
                max_degree,
                avg_degree,
                remaining_energy: run.budget.remaining_fraction(),
            };
            self.strategy
                .upper_bound(&ctx)
                .clamp(Ratio::ONE, max_degree)
        } else {
            Ratio::ONE
        };

        // --- Core selection under power and thermal feasibility -----------
        let bound_cores = server.cores_at_degree(upper_bound).max(normal_cores);
        let needed_cores = self.needed_cores(server, observed).max(normal_cores);
        let desired_cores = needed_cores.min(bound_cores);

        // The normal count is always feasible; start from it.
        let mut chosen = normal_cores;
        let mut per_server = state.power_serving_cached(normal_cores, demand);
        let mut plan = state.plan_cooling(per_server * n_servers, false, dt);
        // Breaker caps depend only on thermal state and the reserve, not on
        // the candidate core count — `prepare` fixed them for this step.
        let caps = state.step_caps();
        // Even the normal core count can need UPS relief (zero headroom, or
        // an exogenous load eating the DC budget): compute its deficit too.
        let mut deficit_total = state.deficit_for(per_server, plan.electric, caps);
        let mut shed_reason: Option<ShedReason> = None;
        // Feasibility is monotone in the core count (more cores draw more
        // power and shed more heat, and the breaker caps are fixed this
        // step), so the best count is found by trying `desired` and, if it
        // fails, binary-searching the largest feasible count below it. The
        // reported shed reason is the reason the *desired* count failed,
        // matching the former walk-down's first-rejection semantics.
        if desired_cores > normal_cores {
            let mut probe = |cores: u32| -> Result<Candidate, ShedReason> {
                state.sprint_candidate(cores, demand, dt, caps)
            };
            let (best, rejection) =
                search_largest_feasible(normal_cores, desired_cores, &mut probe);
            shed_reason = rejection;
            if let Some((cores, c)) = best {
                chosen = cores;
                per_server = c.per_server;
                plan = c.plan;
                deficit_total = c.deficit;
            }
        }

        let it_total = per_server * n_servers;

        // --- Emergency shed (degraded-mode backstop) ----------------------
        // Fault-free, the normal core count always fits under the breaker
        // ratings. A derated breaker (or a large exogenous load) can break
        // that assumption: if the UPS cannot cover the deficit AND holding
        // the load would accumulate trip progress, shed below the normal
        // count until the load leaves the tripping region.
        if chosen == normal_cores {
            let ups_max = (state.ups().deliverable() / dt).min(it_total);
            let uncovered = (deficit_total - ups_max).max_zero();
            if uncovered > Power::from_watts(1e-6)
                && state.trip_risk(it_total, ups_max, plan.electric)
            {
                for cores in (1..normal_cores).rev() {
                    let cand_per_server = state.power_serving_cached(cores, demand);
                    let cand_it = cand_per_server * n_servers;
                    let cand_plan = state.plan_cooling(cand_it, false, dt);
                    let cand_deficit = state.deficit_for(cand_per_server, cand_plan.electric, caps);
                    let cand_ups_max = (state.ups().deliverable() / dt).min(cand_it);
                    let safe = cand_deficit <= cand_ups_max + Power::from_watts(1e-6)
                        || !state.trip_risk(cand_it, cand_ups_max, cand_plan.electric);
                    if safe || cores == 1 {
                        chosen = cores;
                        per_server = cand_per_server;
                        plan = cand_plan;
                        deficit_total = cand_deficit;
                        shed_reason = Some(ShedReason::Emergency);
                        break;
                    }
                }
            }
        }

        CoreDecision {
            cores: chosen,
            per_server,
            plan,
            deficit: deficit_total,
            upper_bound,
            sprinting: self.sprint_active,
            shed_reason,
            recharge: config.recharge_when_quiet
                && !self.sprint_active
                && observed < 0.9 * config.burst_threshold,
            book_sprint_energy: true,
            dark: false,
        }
    }

    #[inline]
    fn finish(
        &mut self,
        state: &FacilityState<'a>,
        input: &StepInput,
        decision: &CoreDecision,
        effects: &mut crate::facility::StepEffects,
    ) {
        let config = state.config();
        let rec = &mut effects.record;

        // --- Termination latches -----------------------------------------
        if let Some(run) = self.run_state.as_mut() {
            if rec.tes_heat > Power::ZERO {
                run.tes_engaged = true;
            }
            // §V-C strict mode: once the TES a sprint relied on is used up,
            // the sprint terminates until the burst has passed.
            if config.terminate_on_tes_exhaustion && run.tes_engaged && state.tes().is_depleted() {
                self.sprint_active = false;
                self.hold_until_quiet = true;
            }
        }
        if rec.overheated || rec.tripped {
            // Safety: terminate the sprint permanently. With the TES
            // deadline rule this should be unreachable; it guards against
            // misconfiguration.
            self.sprint_active = false;
            self.terminated = true;
        }

        // --- Post-latch sprint accounting --------------------------------
        if self.sprint_active {
            let run = self
                .run_state
                .as_mut()
                .expect("run state exists while sprinting");
            run.degree_integral += rec.degree.as_f64() * input.dt.as_secs();
            run.sprint_elapsed += input.dt.as_secs();
            run.budget.debit(
                rec.ups_power + effects.cb_above_rated + effects.tes_savings,
                input.dt,
            );
        }

        // The record's sprint flag and phase reflect the post-latch state:
        // UPS/TES activity labels the phase even when the sprint latch has
        // already dropped (e.g. relief for an exogenous spike at normal
        // cores), so telemetry never shows "normal" while batteries drain.
        rec.sprinting = self.sprint_active;
        rec.phase = if rec.tes_heat > Power::ZERO {
            Phase::Tes
        } else if rec.ups_power > Power::ZERO {
            Phase::Ups
        } else if self.sprint_active && decision.cores > state.normal_cores() {
            Phase::CbOnly
        } else {
            Phase::Normal
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{step_cycle, Greedy, NullSink};
    use dcs_faults::{FaultEvent, FaultKind, FaultObserver, FaultSchedule};
    use std::sync::OnceLock;

    static NO_FAULTS: FaultSchedule = FaultSchedule::NONE;

    fn small_spec() -> &'static DataCenterSpec {
        static SPEC: OnceLock<DataCenterSpec> = OnceLock::new();
        SPEC.get_or_init(|| DataCenterSpec::paper_default().with_scale(4, 200))
    }

    fn default_config() -> &'static ControllerConfig {
        static CONFIG: OnceLock<ControllerConfig> = OnceLock::new();
        CONFIG.get_or_init(ControllerConfig::default)
    }

    /// The plant, the policy deciding for it and the sensor pipeline,
    /// stepped the way the runner steps them: faults looked up at the
    /// facility's clock, one observation per step, one kernel cycle.
    struct Plant<'a> {
        facility: FacilityState<'a>,
        policy: SprintPolicy,
        faults: &'a FaultSchedule,
        observer: FaultObserver,
    }

    impl<'a> Plant<'a> {
        fn new(
            spec: &'a DataCenterSpec,
            config: &'a ControllerConfig,
            faults: &'a FaultSchedule,
        ) -> Plant<'a> {
            Plant {
                facility: FacilityState::new(spec, config),
                policy: SprintPolicy::new(Box::new(Greedy), spec),
                faults,
                observer: FaultObserver::new(),
            }
        }

        /// One one-second control period at `demand`.
        fn step(&mut self, demand: f64) -> StepRecord {
            let time = self.facility.now();
            let active = self.faults.active_at(time);
            let input = StepInput {
                time,
                demand,
                observation: self.observer.observe(demand, &active),
                dt: Seconds::new(1.0),
            };
            step_cycle(&mut self.facility, &mut self.policy, &input, &mut NullSink).record
        }
    }

    fn small() -> Plant<'static> {
        small_with(&NO_FAULTS)
    }

    fn small_with(faults: &FaultSchedule) -> Plant<'_> {
        Plant::new(small_spec(), default_config(), faults)
    }

    #[test]
    fn quiet_demand_served_with_normal_cores() {
        let mut c = small();
        for _ in 0..60 {
            let r = c.step(0.7);
            assert_eq!(r.cores, 12);
            assert_eq!(r.served, 0.7);
            assert_eq!(r.phase, Phase::Normal);
            assert!(!r.tripped);
        }
    }

    #[test]
    fn burst_activates_sprint() {
        let mut c = small();
        let r = c.step(2.5);
        assert!(r.sprinting);
        assert!(r.cores > 12);
        assert!(r.served > 1.0);
    }

    #[test]
    fn controlled_sprint_never_trips_breakers() {
        let mut c = small();
        // A brutal 30-minute demand-4 burst.
        for _ in 0..1800 {
            let r = c.step(4.0);
            assert!(!r.tripped, "tripped at {}", r.time);
        }
    }

    #[test]
    fn controlled_sprint_never_overheats() {
        let mut c = small();
        for _ in 0..1800 {
            let r = c.step(4.0);
            assert!(
                !r.overheated,
                "overheated at {} ({})",
                r.time, r.temperature
            );
        }
    }

    #[test]
    fn phases_progress_in_order() {
        let mut c = small();
        let mut seen = Vec::new();
        // A moderate burst: Phase 1 can initially carry it on CB tolerance
        // alone, then UPS joins as the overload bound decays, then TES.
        for _ in 0..1200 {
            let r = c.step(2.0);
            if seen.last() != Some(&r.phase) {
                seen.push(r.phase);
            }
        }
        // Phase 1 must come before phase 2, which must come before phase 3.
        let p1 = seen.iter().position(|p| *p == Phase::CbOnly);
        let p2 = seen.iter().position(|p| *p == Phase::Ups);
        let p3 = seen.iter().position(|p| *p == Phase::Tes);
        assert!(
            p1.is_some() && p2.is_some() && p3.is_some(),
            "phases seen: {seen:?}"
        );
        assert!(p1 < p2 && p2 < p3, "phases out of order: {seen:?}");
    }

    #[test]
    fn sprint_ends_when_burst_ends() {
        let mut c = small();
        for _ in 0..60 {
            c.step(2.0);
        }
        let r = c.step(0.8);
        assert!(!r.sprinting);
        assert_eq!(r.cores, 12);
    }

    #[test]
    fn long_sprint_degrades_gracefully() {
        let mut c = small();
        let mut final_served = 0.0;
        for _ in 0..1800 {
            final_served = c.step(4.0).served;
        }
        // After resources drain the sprint degree collapses toward normal,
        // but the facility keeps serving at least the normal capacity.
        assert!(final_served >= 1.0 - 1e-9);
        // And the stores are indeed drained: the UPS is effectively empty.
        assert!(c.facility.ups().state_of_charge().as_f64() < 0.05);
    }

    #[test]
    fn recharge_refills_stores_when_quiet() {
        let mut c = small();
        for _ in 0..300 {
            c.step(3.5);
        }
        let soc_after_burst = c.facility.ups().state_of_charge();
        for _ in 0..600 {
            let r = c.step(0.5);
            assert!(!r.tripped);
        }
        assert!(c.facility.ups().state_of_charge() > soc_after_burst);
    }

    #[test]
    fn energy_split_accumulates() {
        let mut c = small();
        for _ in 0..900 {
            c.step(3.5);
        }
        let (cb, ups, tes) = c.facility.energy_split();
        assert!(cb > Energy::ZERO);
        assert!(ups > Energy::ZERO);
        assert!(tes > Energy::ZERO);
    }

    #[test]
    fn budget_is_positive_and_finite() {
        let c = small();
        let eb = c.facility.total_energy_budget();
        assert!(eb > Energy::ZERO);
        // The UPS share alone: 800 servers x ~5.7 Wh of deliverable energy.
        assert!(eb > Energy::from_watt_hours(800.0 * 5.0));
    }

    #[test]
    fn power_spike_sheds_degree_immediately() {
        // §IV-A: an unexpected utility power spike must lower the sprinting
        // degree at the next control period without tripping anything.
        // Sprint long enough to drain the UPS first — while batteries hold,
        // the controller absorbs spikes by shifting servers onto them.
        let mut c = small();
        for _ in 0..900 {
            c.step(2.5);
        }
        let before = c.step(2.5);
        assert!(before.cores > 12);
        // A spike the drained UPS cannot absorb (but small enough that
        // normal operation still fits under the breaker rating).
        c.facility
            .set_external_load(c.facility.spec().dc_rated() * 0.04);
        let after = c.step(2.5);
        assert!(
            after.cores < before.cores,
            "degree must drop: {} -> {}",
            before.cores,
            after.cores
        );
        assert!(!after.tripped);
        // Spike clears: the sprint recovers.
        c.facility.set_external_load(Power::ZERO);
        let recovered = c.step(2.5);
        assert!(recovered.cores >= after.cores);
    }

    #[test]
    fn sustained_spike_never_trips() {
        // A spike that still leaves room for normal operation: the
        // controller must ride it indefinitely without a trip, shedding
        // the sprint as needed.
        let mut c = small();
        c.facility
            .set_external_load(c.facility.spec().dc_rated() * 0.05);
        for _ in 0..1800 {
            let r = c.step(3.0);
            assert!(!r.tripped, "tripped at {}", r.time);
        }
    }

    #[test]
    fn strict_termination_ends_sprint_until_quiet() {
        let spec = DataCenterSpec::paper_default().with_scale(4, 200);
        let config = ControllerConfig {
            terminate_on_tes_exhaustion: true,
            // A tiny TES that exhausts quickly.
            tes_minutes: 0.5,
            ..ControllerConfig::default()
        };
        let mut c = Plant::new(&spec, &config, &NO_FAULTS);
        let mut terminated_seen = false;
        let mut prev_sprinting = false;
        for _ in 0..1500 {
            let r = c.step(4.0);
            assert!(!r.tripped && !r.overheated);
            // Skip the transitional step where termination latched mid-step.
            if !r.sprinting && !prev_sprinting && r.demand > 1.0 && terminated_seen {
                assert_eq!(r.cores, 12, "terminated sprint must run normal cores");
            }
            if !r.sprinting && r.demand > 1.0 {
                terminated_seen = true;
            }
            prev_sprinting = r.sprinting;
        }
        assert!(terminated_seen, "strict mode never terminated");
        // Quiet demand clears the latch; a new burst sprints again.
        for _ in 0..30 {
            c.step(0.5);
        }
        let r = c.step(2.0);
        assert!(r.sprinting, "sprinting must resume after the burst passed");
    }

    #[test]
    fn debug_impl_mentions_strategy() {
        let c = small();
        assert!(format!("{:?}", c.policy).contains("Greedy"));
    }

    fn whole_run(kind: FaultKind) -> FaultSchedule {
        FaultSchedule::new(vec![FaultEvent::new(
            Seconds::ZERO,
            Seconds::new(1e6),
            kind,
        )])
    }

    #[test]
    fn empty_fault_schedule_is_telemetry_identical() {
        let none = FaultSchedule::none();
        let mut plain = small();
        let mut faulted = small_with(&none);
        for step in 0..600 {
            let demand = if (120..360).contains(&step) { 2.8 } else { 0.6 };
            let a = plain.step(demand);
            let b = faulted.step(demand);
            assert_eq!(a, b, "diverged at step {step}");
            assert!(!b.fault_active);
        }
    }

    #[test]
    fn fault_free_shed_reasons_are_never_emergency() {
        let mut c = small();
        let mut power_seen = false;
        for _ in 0..1800 {
            let r = c.step(4.0);
            assert_ne!(r.shed_reason, Some(ShedReason::Emergency));
            if r.shed_reason == Some(ShedReason::Power) {
                power_seen = true;
            }
        }
        // A long demand-4 burst must eventually hit the power bound.
        assert!(power_seen, "power shed never reported");
    }

    #[test]
    fn derated_breaker_sheds_below_normal_instead_of_tripping() {
        // At 0.7x effective rating the *normal* load sits in the tripping
        // region; without the emergency backstop this run trips once the
        // UPS drains.
        let faults = whole_run(FaultKind::BreakerDerated { factor: 0.7 });
        let mut c = small_with(&faults);
        let mut emergency_seen = false;
        let mut min_cores = u32::MAX;
        for _ in 0..3600 {
            let r = c.step(1.0);
            assert!(!r.tripped, "tripped at {}", r.time);
            assert!(!r.overheated);
            assert!(r.fault_active);
            if r.shed_reason == Some(ShedReason::Emergency) {
                emergency_seen = true;
            }
            min_cores = min_cores.min(r.cores);
        }
        assert!(emergency_seen, "emergency shed never engaged");
        assert!(min_cores < 12, "never shed below normal cores");
    }

    #[test]
    fn sprinting_with_sensor_faults_stays_safe() {
        let faults = FaultSchedule::new(vec![
            FaultEvent::new(
                Seconds::ZERO,
                Seconds::new(1e6),
                FaultKind::SensorNoise {
                    demand_sigma: 0.15,
                    temp_sigma: 0.5,
                    seed: 7,
                },
            ),
            FaultEvent::new(
                Seconds::new(300.0),
                Seconds::new(900.0),
                FaultKind::StaleTelemetry { hold_steps: 20 },
            ),
        ]);
        let mut c = small_with(&faults);
        for step in 0..1800 {
            let demand = if step % 600 < 300 { 3.0 } else { 0.5 };
            let r = c.step(demand);
            assert!(!r.tripped, "tripped at {}", r.time);
            assert!(!r.overheated, "overheated at {}", r.time);
            // Served performance is reported against the *true* demand.
            assert!(r.served <= r.demand + 1e-9);
        }
    }

    #[test]
    fn ups_string_failure_still_sprints_safely() {
        let faults = whole_run(FaultKind::UpsStringFailure { fraction: 0.5 });
        let mut c = small_with(&faults);
        let mut peak_served = 0.0_f64;
        for _ in 0..900 {
            let r = c.step(2.5);
            assert!(!r.tripped && !r.overheated);
            peak_served = peak_served.max(r.served);
        }
        // Half the strings are gone, but the sprint still beats normal.
        assert!(peak_served > 1.0);
    }
}
