//! The facility step kernel: one physical state, one `advance`.
//!
//! [`FacilityState`] owns every stateful plant model of the paper's
//! facility — breaker topology, UPS fleet, cooling plant, TES tank, room —
//! plus the run's energy ledgers and clock. Its [`StepState::advance`]
//! implementation is the *only* place those models are stepped: the
//! three-phase controller, the capped and uncontrolled baselines, and the
//! batched lane engine all reach the plant through it, differing solely in
//! the [`CoreDecision`] their policies produce.

use crate::budget::cb_overload_energy;
use crate::kernel::StepState;
use crate::{Phase, ShedReason, StepRecord};
use dcs_faults::{ActiveFaults, Observation};
use dcs_power::{DataCenterSpec, PowerTopology};
use dcs_thermal::{CoolingPlant, RoomModel, TesTank};
use dcs_units::{Energy, Power, Ratio, Seconds, TempDelta};
use dcs_ups::UpsFleet;
use serde::{Deserialize, Serialize};

use crate::ControllerConfig;

/// One step's exogenous input to the facility kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepInput {
    /// The driver's clock at the start of the step (the trace timestamp).
    /// The facility keeps its own clock for telemetry; policies that stamp
    /// events (trip times, stop times) use this one.
    pub time: Seconds,
    /// True offered demand (power computations use this; the paper's
    /// §IV-A real-time measurement is at the breakers, not the workload
    /// monitor).
    pub demand: f64,
    /// The sensor observation decisions see: possibly noisy demand, the
    /// active fault set, and the thermal reading bias.
    pub observation: Observation,
    /// Step length.
    pub dt: Seconds,
}

impl StepInput {
    /// A fault-free input whose observation is the true demand.
    #[must_use]
    pub fn nominal(time: Seconds, demand: f64, dt: Seconds) -> StepInput {
        StepInput {
            time,
            demand,
            observation: Observation {
                active: ActiveFaults::nominal(),
                observed: demand,
                thermal_bias: TempDelta::ZERO,
            },
            dt,
        }
    }
}

/// A cooling assignment for one step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoolingPlan {
    /// Heat rate the TES tank absorbs.
    pub via_tes: Power,
    /// Heat rate the chiller absorbs.
    pub via_chiller: Power,
    /// Electric power the plan draws.
    pub electric: Power,
    /// `false` when the sprint's heat gap cannot be absorbed (TES depleted
    /// or flow-limited) — the core count must shrink.
    pub feasible: bool,
}

/// An accepted core-count candidate from the feasibility search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Candidate {
    pub(crate) per_server: Power,
    pub(crate) plan: CoolingPlan,
    pub(crate) deficit: Power,
}

/// The actuation a [`crate::kernel::StepPolicy`] chooses for one facility
/// step: the core count with its power/cooling assignment, plus the flags
/// that tell the kernel which optional physics to run.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreDecision {
    /// Active cores per server.
    pub cores: u32,
    /// Per-server IT power at that count.
    pub per_server: Power,
    /// The step's cooling plan.
    pub plan: CoolingPlan,
    /// The PDU-level power deficit the UPS fleet must cover.
    pub deficit: Power,
    /// The strategy's sprinting-degree bound this period (telemetry).
    pub upper_bound: Ratio,
    /// `true` while the policy considers a sprint active (pre-latch).
    pub sprinting: bool,
    /// Why fewer cores than demanded were chosen, if so.
    pub shed_reason: Option<ShedReason>,
    /// Run the quiet-time UPS/TES recharge block this step.
    pub recharge: bool,
    /// Book additional-energy ledgers (CB-overload, UPS, TES savings) for
    /// this step. Baselines that by definition use no additional energy
    /// (the §II capped facility, §VII-A uncontrolled sprinting) keep this
    /// off so their energy split stays zero.
    pub book_sprint_energy: bool,
    /// The facility is blacked out: serve nothing and skip all physics
    /// (the §VII-A post-trip state).
    pub dark: bool,
}

/// What one facility step produced: the full telemetry record plus the
/// side information policies latch on.
#[derive(Debug, Clone, PartialEq)]
pub struct StepEffects {
    /// The step's telemetry. Policies may finalize the policy-dependent
    /// fields (`sprinting`, `phase`, `time`) in
    /// [`crate::kernel::StepPolicy::finish`].
    pub record: StepRecord,
    /// Breaker trip events raised this step.
    pub trips: Vec<dcs_breaker::TripEvent>,
    /// PDU-delivered sprint power above the breaker *ratings* — the finite
    /// part of the CB contribution that debits the energy budget.
    pub cb_above_rated: Power,
    /// Electric chiller power the TES discharge saved this step.
    pub tes_savings: Power,
}

/// The mutable ("hot") part of a [`FacilityState`], detached from the
/// borrowed spec/config: every stateful plant model plus the clock,
/// exogenous conditions, and energy ledgers. Everything a live service
/// must persist to resume a facility bit-identically after a crash —
/// breaker thermal memory, UPS and TES charge, room temperature — and
/// nothing that is derivable from the spec.
///
/// Serialization round-trips every `f64` exactly (the JSON layer emits
/// shortest-roundtrip literals), so `export → serialize → deserialize →
/// import` reproduces the facility bit for bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FacilityHotState {
    /// Breaker topology, including per-breaker trip progress and deratings.
    pub topology: PowerTopology,
    /// UPS fleet: aggregate charge, on-battery count, deratings.
    pub ups: UpsFleet,
    /// TES tank: stored heat capacity and deratings.
    pub tes: TesTank,
    /// Room model: current air temperature.
    pub room: RoomModel,
    /// The facility clock.
    pub now: Seconds,
    /// Exogenous DC-level load in force.
    pub external_load: Power,
    /// Pessimistic thermal reading margin in force.
    pub thermal_bias: TempDelta,
    /// Lifetime UPS additional energy.
    pub ups_energy: Energy,
    /// Lifetime heat absorbed by the TES.
    pub tes_heat_energy: Energy,
    /// Lifetime chiller savings funded by the TES.
    pub tes_savings_energy: Energy,
    /// Lifetime CB-overload additional energy.
    pub cb_extra_energy: Energy,
}

/// The facility's physical state: topology + plant + room + UPS/TES, the
/// simulation clock, and the lifetime additional-energy ledgers.
///
/// The spec and configuration are *borrowed* for the state's lifetime:
/// search loops construct thousands of facilities against the same spec
/// and must not deep-clone it per run.
#[derive(Debug, Clone)]
pub struct FacilityState<'a> {
    spec: &'a DataCenterSpec,
    config: &'a ControllerConfig,
    topo: PowerTopology,
    ups: UpsFleet,
    plant: CoolingPlant,
    tes: TesTank,
    room: RoomModel,
    // Per-run invariants of the spec, hoisted out of the per-step hot path.
    normal_cores: u32,
    n_servers: f64,
    servers_per_pdu_f: f64,
    pdu_count_f: f64,
    peak_normal_it: Power,
    pdu_rated_total: Power,
    max_degree: Ratio,
    /// Normalized serving capacity indexed by active-core count:
    /// `ServerSpec::capacity_at_cores` precomputed for every count the chip
    /// can field, so the per-step hot path (candidate probes, the served
    /// computation) reads a table instead of re-running the
    /// sublinear-scaling `powf`. Same function, same inputs — bit-identical
    /// values.
    capacity_by_cores: Box<[f64]>,
    /// The `(fault set, dt)` whose deratings are currently applied, letting
    /// `prepare` skip the O(#PDUs) re-application when neither changed —
    /// the common case (no faults, constant step) at hyperscale. The
    /// setters are pure factor stores and idempotent, so skipping a
    /// repeat application is observationally identical to re-applying.
    applied_deratings: Option<(ActiveFaults, Seconds)>,
    /// The reserve-rule caps in force for the current step, computed by
    /// `prepare` right after the step's deratings land (through the
    /// topology's caps memo, so an unchanged hierarchy costs two bit-key
    /// compares instead of two curve inversions). `decide` reads this
    /// instead of recomputing — `prepare` always runs first in the step
    /// cycle and nothing touches the breakers in between, so the value is
    /// bit-identical to an inline computation.
    step_caps: Option<dcs_power::TopologyCaps>,
    now: Seconds,
    /// Exogenous DC-level load (e.g. an unexpected utility power spike,
    /// §IV-A); subtracted from the DC breaker budget every step.
    external_load: Power,
    /// Pessimistic margin added to the room-temperature reading while a
    /// temperature-noise fault is active.
    thermal_bias: TempDelta,
    // Lifetime additional-energy accounting, for the §VII-A split.
    ups_energy: Energy,
    tes_heat_energy: Energy,
    tes_savings_energy: Energy,
    cb_extra_energy: Energy,
}

impl<'a> FacilityState<'a> {
    /// Builds the facility with every store full and every breaker cold.
    #[must_use]
    pub fn new(spec: &'a DataCenterSpec, config: &'a ControllerConfig) -> FacilityState<'a> {
        let topo = PowerTopology::new(spec);
        let ups = UpsFleet::new(
            spec.total_servers(),
            config.ups_chemistry,
            config.ups_rating,
        );
        let plant = CoolingPlant::with_pue(spec.pue(), spec.peak_normal_it_power());
        let tes = TesTank::sized_for(
            spec.peak_normal_it_power(),
            Seconds::from_minutes(config.tes_minutes),
        );
        let room = RoomModel::calibrated(spec.peak_normal_it_power());
        let server = spec.server();
        FacilityState {
            spec,
            config,
            topo,
            ups,
            plant,
            tes,
            room,
            normal_cores: server.normal_cores(),
            capacity_by_cores: (0..=server.chip().cores())
                .map(|c| server.capacity_at_cores(c))
                .collect(),
            applied_deratings: None,
            step_caps: None,
            n_servers: spec.total_servers() as f64,
            servers_per_pdu_f: spec.servers_per_pdu() as f64,
            pdu_count_f: spec.pdu_count() as f64,
            peak_normal_it: spec.peak_normal_it_power(),
            pdu_rated_total: spec.pdu_rated() * spec.pdu_count() as f64,
            max_degree: server.max_degree(),
            now: Seconds::ZERO,
            external_load: Power::ZERO,
            thermal_bias: TempDelta::ZERO,
            ups_energy: Energy::ZERO,
            tes_heat_energy: Energy::ZERO,
            tes_savings_energy: Energy::ZERO,
            cb_extra_energy: Energy::ZERO,
        }
    }

    /// Returns the facility spec.
    #[must_use]
    pub fn spec(&self) -> &'a DataCenterSpec {
        self.spec
    }

    /// Returns the configuration.
    #[must_use]
    pub fn config(&self) -> &'a ControllerConfig {
        self.config
    }

    /// The reserve-rule caps `prepare` fixed for the current step.
    ///
    /// # Panics
    ///
    /// Panics if called before the first `prepare` — the step kernel
    /// always prepares before it decides, so a panic here means a decision
    /// path ran outside the kernel's cycle.
    #[must_use]
    pub fn step_caps(&self) -> dcs_power::TopologyCaps {
        self.step_caps
            .expect("step caps are set by prepare before any decision")
    }

    /// The reserve-rule caps at the breakers' *current* thermal state,
    /// through the topology's memo. Unlike [`FacilityState::step_caps`]
    /// this re-keys against the live breaker signatures, so it is valid
    /// between steps (e.g. for the batched engine's fold certificate after
    /// an `advance`).
    pub fn reserve_caps(&mut self) -> dcs_power::TopologyCaps {
        self.topo.caps_cached(self.config.reserve)
    }

    /// Returns the current simulation time.
    #[must_use]
    pub fn now(&self) -> Seconds {
        self.now
    }

    /// Returns the UPS fleet state.
    #[must_use]
    pub fn ups(&self) -> &UpsFleet {
        &self.ups
    }

    /// Returns the TES tank state.
    #[must_use]
    pub fn tes(&self) -> &TesTank {
        &self.tes
    }

    /// Returns the room model state.
    #[must_use]
    pub fn room(&self) -> &RoomModel {
        &self.room
    }

    /// Returns the breaker topology state.
    #[must_use]
    pub fn topology(&self) -> &PowerTopology {
        &self.topo
    }

    /// Returns the cooling plant state.
    #[must_use]
    pub fn plant(&self) -> &CoolingPlant {
        &self.plant
    }

    /// Returns the normally active core count per server.
    #[must_use]
    pub fn normal_cores(&self) -> u32 {
        self.normal_cores
    }

    /// Returns the total server count as a float.
    #[must_use]
    pub fn n_servers(&self) -> f64 {
        self.n_servers
    }

    /// Returns the server model's maximum sprinting degree.
    #[must_use]
    pub fn max_degree(&self) -> Ratio {
        self.max_degree
    }

    /// Returns the pessimistic thermal reading margin currently in force.
    #[must_use]
    pub fn thermal_bias(&self) -> TempDelta {
        self.thermal_bias
    }

    /// Sets an exogenous DC-level load that persists until changed.
    ///
    /// §IV-A: *"unexpected power spikes in the utility power supply ...
    /// we immediately lower the sprinting degree or end sprinting."* The
    /// load is subtracted from the DC budget, so the next step's
    /// feasibility search sheds cores automatically.
    ///
    /// # Panics
    ///
    /// Panics if `load` is negative.
    pub fn set_external_load(&mut self, load: Power) {
        assert!(load >= Power::ZERO, "external load must be non-negative");
        self.external_load = load;
    }

    /// Returns the current exogenous DC-level load.
    #[must_use]
    pub fn external_load(&self) -> Power {
        self.external_load
    }

    /// Derates the plant to a fault set: stranded UPS strings, a limited
    /// TES valve, weakened breakers. Nominal factors restore nominal
    /// behavior exactly, so applying this every step is idempotent.
    pub fn apply_deratings(&mut self, active: &ActiveFaults, dt: Seconds) {
        // A direct application bypasses `prepare`'s skip cache; drop it so
        // the next step re-applies rather than trusting a stale match.
        self.applied_deratings = None;
        self.ups
            .set_derating(active.ups_available_fraction, active.ups_capacity_factor);
        self.tes
            .set_derating(active.tes_rate_factor(dt), active.tes_capacity_factor);
        self.topo.set_breaker_derating(active.breaker_factor);
    }

    /// Returns the lifetime additional-energy split
    /// `(cb_extra, ups, tes_savings)` — the quantities behind the paper's
    /// "the UPS and TES provide 54 % and 13 % of the additional energy".
    #[must_use]
    pub fn energy_split(&self) -> (Energy, Energy, Energy) {
        (
            self.cb_extra_energy,
            self.ups_energy,
            self.tes_savings_energy,
        )
    }

    /// Returns the total heat the TES tank absorbed.
    #[must_use]
    pub fn tes_heat_total(&self) -> Energy {
        self.tes_heat_energy
    }

    /// `true` if holding this allocation would accumulate trip progress on
    /// some breaker — the emergency-shed criterion. Unlike the reserve
    /// rule this only reacts to loads inside the tripping region, so it
    /// never fires on a fault-free plant at normal load.
    #[must_use]
    pub fn trip_risk(&self, it_total: Power, ups_relief: Power, cooling: Power) -> bool {
        let net_it = (it_total - ups_relief).max_zero();
        let per_pdu = net_it / self.pdu_count_f;
        self.topo.any_pdu_trips_at(per_pdu)
            || !self
                .topo
                .dc_breaker()
                .trip_time_at(net_it + cooling + self.external_load)
                .is_never()
    }

    /// Computes the sprint's total additional-energy budget (`EB_tot`):
    /// UPS deliverable energy, plus CB-overload energy under the reserve
    /// rule (the tighter of the PDU and DC levels), plus the chiller
    /// savings the TES store can fund.
    #[must_use]
    pub fn total_energy_budget(&self) -> Energy {
        let ups = self.ups.deliverable();
        let pdu_cb = if self.topo.pdu_count() > 0 {
            cb_overload_energy(&self.topo.pdu_breakers()[0], self.config.reserve)
                * self.topo.pdu_count() as f64
        } else {
            Energy::ZERO
        };
        let dc_cb = cb_overload_energy(self.topo.dc_breaker(), self.config.reserve);
        let cb = pdu_cb.min(dc_cb);
        let tes_savings =
            self.tes.stored() * (self.plant.unit_cost() * dcs_thermal::CHILLER_SHARE / 1.0);
        ups + cb + tes_savings
    }

    /// The cooling plan for a candidate heat load.
    ///
    /// In phases 1–2 the extra heat rides on the room's thermal
    /// capacitance. Phase 3 engages once the room's time-to-threshold at
    /// the candidate gap falls to the configured horizon — on a fresh room
    /// with a full gap that is the paper's "activate TES at the 5th
    /// minute" rule. Once engaged, the TES **must** absorb the entire gap
    /// (or the plan is infeasible and the policy sheds cores — the
    /// paper's "terminate on TES exhaustion"), and it additionally
    /// replaces part of the chiller load to cut cooling power.
    #[must_use]
    pub fn plan_cooling(&self, heat: Power, sprinting_extra: bool, dt: Seconds) -> CoolingPlan {
        let design = self.plant.design_capacity();
        let gap = (heat - design).max_zero();
        let mut via_tes = Power::ZERO;
        let mut feasible = true;
        if sprinting_extra && gap > Power::ZERO {
            let assumed = self.room.temperature() + self.thermal_bias;
            let tes_engaged =
                self.room.time_to_threshold_from(assumed, gap) <= self.config.thermal_horizon;
            if tes_engaged {
                let available = self.tes.available_rate(dt);
                let replace = heat.min(design) * self.config.tes_replace_fraction;
                via_tes = (gap + replace).min(available);
                feasible = via_tes + Power::from_watts(1e-6) >= gap;
            }
        }
        let mut via_chiller = (heat - via_tes).max_zero().min(design);
        // Re-cool the room at full chiller blast when it is above setpoint
        // and there is no sprint-induced gap to honor.
        if !sprinting_extra && self.room.temperature() > self.room.setpoint() && heat <= design {
            via_chiller = design;
        }
        CoolingPlan {
            via_tes,
            via_chiller,
            electric: self.plant.electric_power(via_chiller, via_tes),
            feasible,
        }
    }

    /// The normalized serving capacity of `cores` active cores, from the
    /// per-facility precomputed table — bit-identical to
    /// `ServerSpec::capacity_at_cores` without the per-call `powf`.
    #[inline]
    #[must_use]
    fn capacity_of(&self, cores: u32) -> f64 {
        self.capacity_by_cores[cores as usize]
    }

    /// The server power while serving `demand` with `active` cores —
    /// `ServerSpec::power_serving` recomputed through the capacity table:
    /// the same utilization and the same linear power model, minus the
    /// capacity `powf` that dominated the candidate probes.
    #[inline]
    #[must_use]
    pub fn power_serving_cached(&self, active: u32, demand: f64) -> Power {
        debug_assert!(demand >= 0.0, "demand must be non-negative");
        let server = self.spec.server();
        if active == 0 {
            return server.power_at(0, 0.0);
        }
        let cap = self.capacity_by_cores[active as usize];
        let utilization = if cap == 0.0 {
            0.0
        } else {
            (demand / cap).min(1.0)
        };
        server.power_at(active, utilization)
    }

    /// Evaluates the power and thermal feasibility of sprinting on `cores`
    /// active cores this step. On success returns the accepted allocation;
    /// on failure, why the candidate was rejected.
    pub(crate) fn sprint_candidate(
        &self,
        cores: u32,
        demand: f64,
        dt: Seconds,
        caps: dcs_power::TopologyCaps,
    ) -> Result<Candidate, ShedReason> {
        let per_server = self.power_serving_cached(cores, demand);
        let it_total = per_server * self.n_servers;
        let plan = self.plan_cooling(it_total, true, dt);
        if !plan.feasible {
            return Err(ShedReason::Thermal);
        }
        let dc_it_budget = (caps.dc_total - plan.electric - self.external_load).max_zero();
        let allowed_per_pdu = caps.per_pdu.min(dc_it_budget / self.pdu_count_f);
        let per_pdu_desired = per_server * self.servers_per_pdu_f;
        let deficit = (per_pdu_desired - allowed_per_pdu).max_zero() * self.pdu_count_f;
        let ups_max = (self.ups.deliverable() / dt).min(it_total);
        if deficit <= ups_max + Power::from_watts(1e-6) {
            Ok(Candidate {
                per_server,
                plan,
                deficit,
            })
        } else {
            Err(ShedReason::Power)
        }
    }

    /// Exports the facility's mutable state — plant models, clock,
    /// exogenous conditions, energy ledgers — as a serializable snapshot.
    /// See [`FacilityHotState`].
    #[must_use]
    pub fn export_hot_state(&self) -> FacilityHotState {
        FacilityHotState {
            topology: self.topo.clone(),
            ups: self.ups.clone(),
            tes: self.tes.clone(),
            room: self.room.clone(),
            now: self.now,
            external_load: self.external_load,
            thermal_bias: self.thermal_bias,
            ups_energy: self.ups_energy,
            tes_heat_energy: self.tes_heat_energy,
            tes_savings_energy: self.tes_savings_energy,
            cb_extra_energy: self.cb_extra_energy,
        }
    }

    /// Replaces the facility's mutable state with a previously exported
    /// snapshot. The counterpart of
    /// [`export_hot_state`](Self::export_hot_state): on a facility built
    /// from the same spec and configuration, importing an export restores
    /// behavior bit-identically (the snapshot holds every stateful model;
    /// everything else is derived from the borrowed spec).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's topology or UPS fleet geometry does not
    /// match this facility's spec — a snapshot from a differently sized
    /// facility cannot be meaningfully imported.
    pub fn import_hot_state(&mut self, hot: FacilityHotState) {
        assert_eq!(
            hot.topology.pdu_count(),
            self.topo.pdu_count(),
            "hot state was exported from a facility with a different PDU count"
        );
        assert_eq!(
            hot.ups.units(),
            self.ups.units(),
            "hot state was exported from a facility with a different UPS fleet"
        );
        self.topo = hot.topology;
        self.ups = hot.ups;
        self.tes = hot.tes;
        self.room = hot.room;
        // The restored components carry their own derating factors; the
        // next `prepare` must re-apply rather than trust this facility's
        // pre-import skip cache.
        self.applied_deratings = None;
        self.now = hot.now;
        self.external_load = hot.external_load;
        self.thermal_bias = hot.thermal_bias;
        self.ups_energy = hot.ups_energy;
        self.tes_heat_energy = hot.tes_heat_energy;
        self.tes_savings_energy = hot.tes_savings_energy;
        self.cb_extra_energy = hot.cb_extra_energy;
    }

    /// The PDU-level deficit a candidate allocation leaves after the
    /// breaker caps — the same arithmetic `sprint_candidate` applies,
    /// shared with the normal-count and emergency-shed evaluations.
    pub(crate) fn deficit_for(
        &self,
        per_server: Power,
        plan_electric: Power,
        caps: dcs_power::TopologyCaps,
    ) -> Power {
        let dc_it_budget = (caps.dc_total - plan_electric - self.external_load).max_zero();
        let allowed_per_pdu = caps.per_pdu.min(dc_it_budget / self.pdu_count_f);
        let per_pdu_desired = per_server * self.servers_per_pdu_f;
        (per_pdu_desired - allowed_per_pdu).max_zero() * self.pdu_count_f
    }
}

impl StepState for FacilityState<'_> {
    type Input = StepInput;
    type Decision = CoreDecision;
    type Effects = StepEffects;

    /// Applies the step's fault deratings and sensor bias — the same
    /// pre-decision conditioning the pre-refactor controller performed at
    /// the top of every step.
    #[inline]
    fn prepare(&mut self, input: &StepInput) {
        // The setters are idempotent pure stores, so identical `(faults,
        // dt)` means the factors already in force are exactly what a
        // re-application would write — skip the O(#PDUs) walk.
        let key = (input.observation.active, input.dt);
        if self.applied_deratings != Some(key) {
            self.apply_deratings(&input.observation.active, input.dt);
            self.applied_deratings = Some(key);
        }
        self.thermal_bias = input.observation.thermal_bias;
        // With the deratings in force, fix this step's reserve caps for
        // `decide` (memo-hit when the breakers haven't moved).
        self.step_caps = Some(self.topo.caps_cached(self.config.reserve));
    }

    /// Runs one step of facility physics under the decision, in the exact
    /// actuation order of the pre-refactor controller: UPS offload, TES
    /// discharge, cooling electric draw, quiet-time recharge, breaker
    /// stepping, room integration, ledger accounting.
    #[inline]
    fn advance(&mut self, input: &StepInput, d: &CoreDecision) -> StepEffects {
        let dt = input.dt;
        let time = self.now;
        let server = self.spec.server();
        let fault_active = input.observation.active.any();

        if d.dark {
            // Blacked out: nothing runs, nothing is served, no physics.
            self.now += dt;
            return StepEffects {
                record: StepRecord {
                    time,
                    demand: input.demand,
                    served: 0.0,
                    cores: d.cores,
                    degree: server.degree_of_cores(d.cores),
                    upper_bound: d.upper_bound,
                    it_power: Power::ZERO,
                    cooling_power: Power::ZERO,
                    ups_power: Power::ZERO,
                    tes_heat: Power::ZERO,
                    cb_extra_power: Power::ZERO,
                    phase: Phase::Normal,
                    temperature: self.room.temperature(),
                    sprinting: false,
                    tripped: false,
                    overheated: self.room.is_over_threshold(),
                    fault_active,
                    shed_reason: d.shed_reason,
                },
                trips: Vec::new(),
                cb_above_rated: Power::ZERO,
                tes_savings: Power::ZERO,
            };
        }

        let it_total = d.per_server * self.n_servers;

        // Phase 2: offload the CB deficit onto UPS batteries. The
        // zero-request call still synchronizes the fleet's on-battery
        // count without touching stored energy.
        let ups_got = if d.deficit > Power::ZERO {
            self.ups.offload(d.deficit, d.per_server, dt)
        } else {
            self.ups
                .offload(Power::ZERO, d.per_server.max(Power::from_watts(1.0)), dt)
        };
        // Phase 3: discharge the TES per the plan.
        let tes_got = if d.plan.via_tes > Power::ZERO {
            self.tes.discharge(d.plan.via_tes, dt)
        } else {
            Power::ZERO
        };
        let via_chiller = d.plan.via_chiller;

        let cooling_power = self.plant.electric_power(via_chiller, tes_got);
        let sprint_net_it = (it_total - ups_got).max_zero();

        // Quiet-time recharge rides inside the breakers' *no-trip* region:
        // on a healthy plant that headroom dwarfs the recharge draw, but a
        // derated breaker can be overloaded by normal load alone, and
        // recharging through it would turn a slow safe march into a trip.
        let mut recharge_power = Power::ZERO;
        if d.recharge {
            let pdu_count = self.pdu_count_f;
            let per_pdu_net = sprint_net_it / pdu_count;
            let pdu_limit = self.topo.min_pdu_no_trip_limit();
            let pdu_room = (pdu_limit - per_pdu_net).max_zero() * pdu_count;
            let dc_room = (self.topo.dc_breaker().no_trip_limit()
                - (sprint_net_it + cooling_power + self.external_load))
                .max_zero();
            let mut budget = pdu_room.min(dc_room);
            let ups_request = (self.config.ups_recharge_per_server * self.n_servers).min(budget);
            let accepted = self.ups.recharge(ups_request, dt);
            recharge_power += accepted;
            budget = (budget - accepted).max_zero();
            // Re-chilling costs chiller power for the extra heat capacity.
            let tes_rate = (self.plant.design_capacity() * self.config.tes_recharge_fraction)
                .min(budget / self.plant.unit_cost());
            let tes_accepted = self.tes.recharge(tes_rate, dt);
            recharge_power += tes_accepted * self.plant.unit_cost();
        }

        let net_it_through_pdus = sprint_net_it + recharge_power;
        let per_pdu_net = net_it_through_pdus / self.pdu_count_f;
        let trips = self
            .topo
            .step_uniform(per_pdu_net, cooling_power + self.external_load, dt);
        let tripped = !trips.is_empty();

        // Thermal.
        self.room.step(it_total, via_chiller + tes_got, dt);
        let overheated = self.room.is_over_threshold();

        // Additional-energy accounting. CB contribution counts only sprint
        // IT power above peak normal; the finite (budget-debiting) part is
        // only what exceeds the breaker *ratings* — the NEC band between
        // peak normal and rated is sustainable indefinitely.
        let (cb_extra, cb_above_rated, tes_savings) = if d.book_sprint_energy {
            let cb_extra = (sprint_net_it - self.peak_normal_it).max_zero();
            let cb_above_rated = (sprint_net_it - self.pdu_rated_total).max_zero();
            let tes_savings = self.plant.tes_savings(tes_got);
            self.ups_energy += ups_got * dt;
            self.tes_heat_energy += tes_got * dt;
            self.tes_savings_energy += tes_savings * dt;
            self.cb_extra_energy += cb_extra * dt;
            (cb_extra, cb_above_rated, tes_savings)
        } else {
            (Power::ZERO, Power::ZERO, Power::ZERO)
        };
        let degree = server.degree_of_cores(d.cores);

        let served = input.demand.min(self.capacity_of(d.cores));
        // Provisional phase from the decision's pre-latch sprint flag;
        // policies with termination latches finalize it in `finish`.
        let phase = if tes_got > Power::ZERO {
            Phase::Tes
        } else if ups_got > Power::ZERO {
            Phase::Ups
        } else if d.sprinting && d.cores > self.normal_cores {
            Phase::CbOnly
        } else {
            Phase::Normal
        };

        self.now += dt;
        StepEffects {
            record: StepRecord {
                time,
                demand: input.demand,
                served,
                cores: d.cores,
                degree,
                upper_bound: d.upper_bound,
                it_power: it_total,
                cooling_power,
                ups_power: ups_got,
                tes_heat: tes_got,
                cb_extra_power: cb_extra,
                phase,
                temperature: self.room.temperature(),
                sprinting: d.sprinting,
                tripped,
                overheated,
                fault_active,
                shed_reason: d.shed_reason,
            },
            trips,
            cb_above_rated,
            tes_savings,
        }
    }
}
