//! The Oracle strategy: search over constant degree bounds.

use crate::batch::{run_bound_batch, BatchStats};
use crate::checkpoint::{fingerprint_of, fnv1a64, CheckpointStore};
use crate::error::SimError;
use crate::supervisor::Supervisor;
use crate::{
    parallel_map, run_summary_with_faults, run_with_faults, Scenario, SimResult, SimSummary,
};
use dcs_core::FixedBound;
use dcs_faults::{FaultKind, FaultSchedule};
use dcs_units::Ratio;
use dcs_workload::Trace;
use serde::{Deserialize, Serialize};

/// The outcome of an Oracle search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OracleOutcome {
    /// The best constant upper bound found.
    pub best_bound: Ratio,
    /// The run under the best bound.
    pub best: SimResult,
    /// Every `(bound, average served demand)` pair *evaluated*, in
    /// ascending bound order. [`OracleMode::Exhaustive`] evaluates the
    /// whole grid; [`OracleMode::Pruned`] populates only the points its
    /// search visited (always including the maximum bound).
    pub tried: Vec<(f64, f64)>,
}

/// How the Oracle explores the degree grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum OracleMode {
    /// Prune the grid before running: bounds too loose to ever bind are
    /// collapsed into one representative, and the remaining profile —
    /// empirically unimodal in the bound — is scanned coarse-to-fine with
    /// lean ([`crate::run_summary_with_faults`]) runs. Produces the same
    /// `best_bound` as [`OracleMode::Exhaustive`] whenever the profile is
    /// unimodal (plateaus included), at a fraction of the simulated work.
    #[default]
    Pruned,
    /// The historical exhaustive scan: every grid point evaluated. The
    /// explicit fallback if a scenario's performance-vs-bound profile is
    /// ever *not* unimodal.
    Exhaustive,
}

/// Returns the sprinting-degree grid the Oracle searches: one point per
/// whole core from the normal count to the full chip (§V-A: the degree "is
/// discrete with a fine granularity — each core can be individually powered
/// on or off").
#[must_use]
pub fn degree_grid(spec: &dcs_power::DataCenterSpec) -> Vec<Ratio> {
    let server = spec.server();
    (server.normal_cores()..=server.chip().cores())
        .map(|cores| server.degree_of_cores(cores))
        .collect()
}

/// Runs the Oracle strategy: finds the constant [`FixedBound`] with the
/// best average performance over the degree grid, using the default
/// [`OracleMode::Pruned`] search.
///
/// This is §V-A's *"finds the optimal upper bound by exhaustive search,
/// with the assumption that the burst degree and burst duration can be
/// perfectly predicted"* — impractical online, but the reference the other
/// strategies are compared against.
///
/// # Panics
///
/// Panics if the degree grid is empty (impossible for a valid spec).
#[must_use]
pub fn oracle_search(scenario: &Scenario) -> OracleOutcome {
    oracle_search_stats(scenario, &FaultSchedule::NONE, OracleMode::Pruned).0
}

/// Runs the Oracle search with an explicit fault schedule and search mode,
/// plus the batch work counters (lane-steps run live versus folded by
/// early retirement).
///
/// Both modes submit each evaluation wave of their candidate plan as one
/// [`run_bound_batch`] — a single pass over the trace advances every lane
/// — and finish with one full-telemetry run of the winner. Results are
/// bit-identical to [`oracle_search_unbatched`].
///
/// # Panics
///
/// Panics if the degree grid is empty (impossible for a valid spec).
#[must_use]
pub fn oracle_search_stats(
    scenario: &Scenario,
    faults: &FaultSchedule,
    mode: OracleMode,
) -> (OracleOutcome, BatchStats) {
    let (best_bound, tried, stats) = batched_scan(scenario, faults, mode);
    let best = oracle_run(scenario, faults, best_bound);
    (
        OracleOutcome {
            best_bound,
            best,
            tried,
        },
        stats,
    )
}

/// The final full-telemetry run of the selected bound, named "Oracle".
fn oracle_run(scenario: &Scenario, faults: &FaultSchedule, bound: Ratio) -> SimResult {
    let mut best = run_with_faults(scenario, Box::new(FixedBound::new(bound)), faults);
    best.strategy = "Oracle".into();
    best
}

/// Positions evaluated per checkpoint chunk in the resumable search: small
/// enough that a kill loses little work, large enough that snapshot I/O is
/// noise next to the simulation itself.
const CKPT_CHUNK: usize = 8;

/// Checkpoint payload for a resumable Oracle search: every evaluated
/// candidate position with its value (stored as raw `f64` bits for
/// bit-exact resume) plus the accumulated batch counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct OracleCkpt {
    /// `(candidate position, average-performance f64 bits)` pairs.
    values: Vec<(u64, u64)>,
    /// Batch counters accumulated over the evaluated chunks.
    stats: BatchStats,
}

/// Opens (or reopens) a checkpoint store for a resumable Oracle search
/// over these exact inputs. The store's fingerprint covers the scenario,
/// fault schedule, and mode, so resuming against a directory written for
/// different inputs is rejected instead of producing a silently wrong
/// answer.
pub fn oracle_checkpoint_store(
    dir: impl Into<std::path::PathBuf>,
    scenario: &Scenario,
    faults: &FaultSchedule,
    mode: OracleMode,
) -> Result<CheckpointStore, SimError> {
    let fp = fnv1a64(
        format!(
            "{:016x}:{:016x}:{:016x}",
            fingerprint_of(scenario),
            fingerprint_of(faults),
            fingerprint_of(&mode)
        )
        .as_bytes(),
    );
    CheckpointStore::open(dir, "oracle", fp)
}

/// [`oracle_search_stats`] with supervised, checkpointed execution: each
/// evaluation wave is split into small chunks, each chunk runs under the
/// supervisor's panic isolation and retry policy, and a snapshot of every
/// completed value is written atomically after each chunk. Killed at any
/// snapshot boundary (or resumed from a prior run's directory via the same
/// `store`), the search continues from the last intact snapshot and
/// returns an [`OracleOutcome`] bit-identical to [`oracle_search_stats`].
///
/// The returned [`BatchStats`] count the lane-steps *this* execution
/// path ran (chunked waves, minus whatever a resume restored) — work
/// accounting, not part of the certified outcome.
pub fn oracle_search_resumable(
    scenario: &Scenario,
    faults: &FaultSchedule,
    mode: OracleMode,
    supervisor: &Supervisor,
    store: &mut CheckpointStore,
) -> Result<(OracleOutcome, BatchStats), SimError> {
    let plan = ScanPlan::new(scenario.spec(), scenario.trace(), faults, mode);
    let mut saved: Vec<Option<f64>> = vec![None; plan.len()];
    let mut stats = BatchStats::default();
    if let Some(loaded) = store.load_latest::<OracleCkpt>()? {
        for &(p, bits) in &loaded.payload.values {
            let p = p as usize;
            if p >= saved.len() {
                return Err(SimError::checkpoint(
                    store.dir().display().to_string(),
                    format!("snapshot position {p} exceeds plan size {}", saved.len()),
                ));
            }
            saved[p] = Some(f64::from_bits(bits));
        }
        stats = loaded.payload.stats;
    }

    let mut chunk_ordinal = 0_usize;
    let (best_bound, tried) = plan.search(saved.clone(), |positions| {
        let mut values = Vec::with_capacity(positions.len());
        for chunk in positions.chunks(CKPT_CHUNK) {
            let bounds: Vec<Ratio> = chunk.iter().map(|&p| plan.bound(p)).collect();
            let batch =
                supervisor.call(chunk_ordinal, || run_bound_batch(scenario, &bounds, faults))?;
            chunk_ordinal += 1;
            stats.merge(batch.stats);
            for (&p, s) in chunk.iter().zip(&batch.summaries) {
                saved[p] = Some(s.average_performance());
                values.push(s.average_performance());
            }
            store.save(&OracleCkpt {
                values: saved
                    .iter()
                    .enumerate()
                    .filter_map(|(p, v)| v.map(|v| (p as u64, v.to_bits())))
                    .collect(),
                stats,
            })?;
        }
        Ok(values)
    })?;
    let best = supervisor.call(plan.len(), || oracle_run(scenario, faults, best_bound))?;
    Ok((
        OracleOutcome {
            best_bound,
            best,
            tried,
        },
        stats,
    ))
}

/// The pre-batching reference implementation: every evaluation is an
/// independent run.
///
/// This is an equality reference, not product: it is kept only as the
/// ground truth the batched search must match bit-for-bit, for the unit
/// tests, the hyperscale equivalence test and the benchmark's correctness
/// gates. Plan with [`oracle_search`] or [`oracle_search_stats`]; this
/// function gets no new variants.
///
/// # Panics
///
/// Panics if the degree grid is empty (impossible for a valid spec).
#[must_use]
pub fn oracle_search_unbatched(
    scenario: &Scenario,
    faults: &FaultSchedule,
    mode: OracleMode,
) -> OracleOutcome {
    let (best_bound, tried) = independent_scan(scenario, faults, mode);
    OracleOutcome {
        best_bound,
        best: oracle_run(scenario, faults, best_bound),
        tried,
    }
}

/// The batched scan: each wave of the plan is one [`run_bound_batch`].
/// Returns the best bound, the evaluated `(bound, average performance)`
/// pairs and the batch counters, without the final full-telemetry run
/// (the table builder wants only the bound).
pub(crate) fn batched_scan(
    scenario: &Scenario,
    faults: &FaultSchedule,
    mode: OracleMode,
) -> (Ratio, Vec<(f64, f64)>, BatchStats) {
    let plan = ScanPlan::new(scenario.spec(), scenario.trace(), faults, mode);
    let mut stats = BatchStats::default();
    let (best, tried) = plan
        .search(vec![None; plan.len()], |positions| {
            let bounds: Vec<Ratio> = positions.iter().map(|&p| plan.bound(p)).collect();
            let batch = run_bound_batch(scenario, &bounds, faults);
            stats.merge(batch.stats);
            Ok(batch
                .summaries
                .iter()
                .map(SimSummary::average_performance)
                .collect())
        })
        .expect("a batched evaluation cannot fail");
    (best, tried, stats)
}

/// The reference scan: every evaluation an independent lean
/// [`run_summary_with_faults`] run (whose average performance is
/// bit-identical to a full run's), spread over [`parallel_map`].
pub(crate) fn independent_scan(
    scenario: &Scenario,
    faults: &FaultSchedule,
    mode: OracleMode,
) -> (Ratio, Vec<(f64, f64)>) {
    let plan = ScanPlan::new(scenario.spec(), scenario.trace(), faults, mode);
    plan.search(vec![None; plan.len()], |positions| {
        Ok(parallel_map(positions, |&p| {
            run_summary_with_faults(scenario, Box::new(FixedBound::new(plan.bound(p))), faults)
                .average_performance()
        }))
    })
    .expect("an independent evaluation cannot fail")
}

/// Index of the last maximum of an iterator of values (`max_by` with
/// `total_cmp` keeps the last of ties; the pruned scan does the same).
pub(crate) fn last_argmax(values: impl Iterator<Item = f64>) -> usize {
    let mut best = 0;
    let mut best_val = f64::NEG_INFINITY;
    for (i, v) in values.enumerate() {
        if v.total_cmp(&best_val).is_ge() {
            best = i;
            best_val = v;
        }
    }
    best
}

/// Bounds at or below this many effective grid points are all evaluated:
/// the coarse-to-fine machinery only pays off on larger grids.
const EXHAUST_BELOW: usize = 8;

/// The Oracle's candidate set and evaluation schedule, split from the
/// evaluator so the same plan can be fed by independent runs (the
/// reference path), by batched lanes, by supervised checkpointed chunks,
/// or by the table builder's tapped columns.
///
/// An [`OracleMode::Exhaustive`] plan is the whole grid in one wave. An
/// [`OracleMode::Pruned`] plan applies two prunes, both *exact* under
/// stated assumptions:
///
/// 1. **Saturation.** A bound whose core count is at least the cores
///    needed for the largest demand the controller can ever *observe*
///    (max trace demand plus the worst ±3σ sensor-noise excursion in the
///    fault schedule) never binds, so all such bounds produce identical
///    runs. Only the largest is evaluated, as the representative — which
///    also preserves the exhaustive scan's last-of-ties selection.
/// 2. **Unimodality.** On grids above [`EXHAUST_BELOW`] points the
///    performance-vs-bound profile is assumed unimodal (tight bounds
///    under-sprint, loose bounds over-drain the stores; plateaus occur
///    where a whole range of bounds acts identically). A stride-√m coarse
///    wave plus a full scan of the window around the coarse winner finds
///    the *last* grid argmax of any unimodal-with-plateaus profile: the
///    true argmax plateau always ends strictly inside the refined window.
///    The assumption is not a theorem; ROADMAP item 9 records profiles
///    where it fails.
pub(crate) struct ScanPlan {
    grid: Vec<Ratio>,
    candidates: Vec<usize>,
    /// The coarse wave's stride; `None` when the first wave is every
    /// position and there is no refinement window.
    stride: Option<usize>,
}

impl ScanPlan {
    /// Builds the plan for a trace under a fault schedule.
    ///
    /// # Panics
    ///
    /// Panics if the degree grid is empty (impossible for a valid spec).
    pub(crate) fn new(
        spec: &dcs_power::DataCenterSpec,
        trace: &Trace,
        faults: &FaultSchedule,
        mode: OracleMode,
    ) -> ScanPlan {
        let grid = degree_grid(spec);
        assert!(!grid.is_empty(), "degree grid is never empty");
        let candidates = match mode {
            OracleMode::Exhaustive => (0..grid.len()).collect(),
            OracleMode::Pruned => unsaturated_candidates(spec, trace, faults, &grid),
        };
        let m = candidates.len();
        let stride = (mode == OracleMode::Pruned && m > EXHAUST_BELOW)
            .then(|| (m as f64).sqrt().ceil() as usize);
        ScanPlan {
            grid,
            candidates,
            stride,
        }
    }

    /// Number of candidate positions.
    pub(crate) fn len(&self) -> usize {
        self.candidates.len()
    }

    /// The bound at candidate position `p`.
    pub(crate) fn bound(&self, p: usize) -> Ratio {
        self.grid[self.candidates[p]]
    }

    /// `true` if the plan refines around a coarse first wave; `false` if
    /// the first wave already evaluates every position.
    pub(crate) fn refines(&self) -> bool {
        self.stride.is_some()
    }

    /// The first evaluation wave: every position, or on a refining plan
    /// the stride-√m coarse set (always including the last position).
    pub(crate) fn first_positions(&self) -> Vec<usize> {
        let m = self.len();
        match self.stride {
            None => (0..m).collect(),
            Some(stride) => {
                let mut coarse: Vec<usize> = (0..m).step_by(stride).collect();
                if *coarse.last().expect("m > 0") != m - 1 {
                    coarse.push(m - 1);
                }
                coarse
            }
        }
    }

    /// The *last* argmax among the coarse positions — the center the
    /// refinement window (or the table builder's walk) grows around.
    /// Preserves last-of-ties selection.
    pub(crate) fn pivot(&self, values: &[Option<f64>]) -> usize {
        let coarse = self.first_positions();
        coarse[last_argmax(
            coarse
                .iter()
                .map(|&p| values[p].expect("coarse point evaluated")),
        )]
    }

    /// The second evaluation wave given the first wave's values: the
    /// not-yet-evaluated positions in the window around the last coarse
    /// argmax. Empty when the first wave already covered everything.
    fn window_positions(&self, values: &[Option<f64>]) -> Vec<usize> {
        let Some(stride) = self.stride else {
            return Vec::new();
        };
        let pivot = self.pivot(values);
        // Under unimodality the argmax plateau ends strictly between the
        // coarse neighbors of the pivot: scan that window exhaustively.
        let lo = pivot.saturating_sub(stride - 1);
        let hi = (pivot + stride - 1).min(self.len() - 1);
        (lo..=hi).filter(|&p| values[p].is_none()).collect()
    }

    /// The Oracle's search driver: runs the first wave and the refinement
    /// window through `evaluate` — which gets the not-yet-evaluated
    /// positions of a wave and returns their average performance in the
    /// same order — then selects. `values` holds anything already known
    /// (a resumed checkpoint); those positions are not evaluated again.
    pub(crate) fn search(
        &self,
        mut values: Vec<Option<f64>>,
        mut evaluate: impl FnMut(&[usize]) -> Result<Vec<f64>, SimError>,
    ) -> Result<(Ratio, Vec<(f64, f64)>), SimError> {
        let mut wave = |positions: Vec<usize>, values: &mut Vec<Option<f64>>| {
            let pending: Vec<usize> = positions
                .into_iter()
                .filter(|&p| values[p].is_none())
                .collect();
            if !pending.is_empty() {
                for (&p, v) in pending.iter().zip(evaluate(&pending)?) {
                    values[p] = Some(v);
                }
            }
            Ok::<(), SimError>(())
        };
        wave(self.first_positions(), &mut values)?;
        wave(self.window_positions(&values), &mut values)?;
        Ok(self.select(&values))
    }

    /// Final selection: the last argmax over everything evaluated
    /// (positions ascend with the bound, so this matches `max_by`'s
    /// last-of-ties result), plus the `tried` pairs in ascending order.
    pub(crate) fn select(&self, values: &[Option<f64>]) -> (Ratio, Vec<(f64, f64)>) {
        let evaluated: Vec<(usize, f64)> = values
            .iter()
            .enumerate()
            .filter_map(|(p, v)| Some((p, (*v)?)))
            .collect();
        let best = evaluated[last_argmax(evaluated.iter().map(|&(_, v)| v))].0;
        let tried = evaluated
            .iter()
            .map(|&(p, v)| (self.bound(p).as_f64(), v))
            .collect();
        (self.bound(best), tried)
    }
}

/// The saturation prune: the grid positions below the first bound that
/// can never bind, plus the *last* grid point representing the entire
/// saturated tail.
fn unsaturated_candidates(
    spec: &dcs_power::DataCenterSpec,
    trace: &Trace,
    faults: &FaultSchedule,
    grid: &[Ratio],
) -> Vec<usize> {
    let server = spec.server();
    let n = grid.len();
    let normal = server.normal_cores();
    let max_demand = trace.iter().map(|(_, d)| d).fold(0.0_f64, f64::max);
    let max_sigma = faults
        .events()
        .iter()
        .map(|e| match e.kind {
            FaultKind::SensorNoise { demand_sigma, .. } => demand_sigma,
            _ => 0.0,
        })
        .fold(0.0_f64, f64::max);
    // Sensor noise is truncated at ±3σ, so no observed demand can exceed
    // this cap (stale telemetry only replays past observations).
    let observed_cap = max_demand + 3.0 * max_sigma;
    let saturating_cores = server.cores_for_demand(Ratio::new(observed_cap));
    let first_saturated = grid
        .iter()
        .position(|&b| server.cores_at_degree(b).max(normal) >= saturating_cores)
        .unwrap_or(n - 1);
    let mut candidates: Vec<usize> = (0..first_saturated).collect();
    candidates.push(n - 1);
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_core::{ControllerConfig, Greedy};
    use dcs_power::DataCenterSpec;
    use dcs_units::Seconds;
    use dcs_workload::yahoo_trace;

    fn scenario(degree: f64, minutes: f64) -> Scenario {
        Scenario::new(
            DataCenterSpec::paper_default().with_scale(2, 200),
            ControllerConfig::default(),
            yahoo_trace::with_burst(1, degree, Seconds::from_minutes(minutes)),
        )
    }

    #[test]
    fn grid_covers_core_range() {
        let grid = degree_grid(&DataCenterSpec::paper_default());
        assert_eq!(grid.len(), 37);
        assert_eq!(grid[0], Ratio::ONE);
        assert_eq!(grid[36].as_f64(), 4.0);
    }

    #[test]
    fn oracle_at_least_matches_greedy() {
        // Greedy is one point in the Oracle's search space (the max bound),
        // so the Oracle can never do worse.
        for (degree, minutes) in [(3.0, 5.0), (3.2, 15.0)] {
            let s = scenario(degree, minutes);
            let oracle = oracle_search(&s);
            let greedy = crate::run(&s, Box::new(Greedy));
            assert!(
                oracle.best.average_performance() >= greedy.average_performance() - 1e-9,
                "oracle {} < greedy {} at ({degree}, {minutes})",
                oracle.best.average_performance(),
                greedy.average_performance()
            );
        }
    }

    #[test]
    fn oracle_constrains_long_bursts() {
        // On a long high burst the best bound is below the hardware max:
        // the paper's key observation about power efficiency.
        let outcome = oracle_search(&scenario(3.2, 15.0));
        assert!(
            outcome.best_bound.as_f64() < 4.0,
            "oracle picked {}",
            outcome.best_bound
        );
    }

    #[test]
    fn short_bursts_leave_bound_loose() {
        // On a short burst, stored energy is not binding: the best bound is
        // at (or effectively at) the maximum.
        let outcome = oracle_search(&scenario(3.0, 1.0));
        let max_perf = outcome.tried.iter().map(|(_, p)| *p).fold(0.0, f64::max);
        let greedy_perf = outcome.tried.last().unwrap().1;
        assert!((greedy_perf - max_perf).abs() < 1e-6);
    }

    #[test]
    fn exhaustive_tried_covers_whole_grid() {
        let outcome = oracle_search_stats(
            &scenario(2.6, 1.0),
            &FaultSchedule::NONE,
            OracleMode::Exhaustive,
        )
        .0;
        assert_eq!(outcome.tried.len(), 37);
        assert_eq!(outcome.best.strategy, "Oracle");
    }

    #[test]
    fn pruned_matches_exhaustive() {
        for (degree, minutes) in [(2.6, 1.0), (3.2, 15.0), (4.0, 30.0)] {
            let s = scenario(degree, minutes);
            let pruned = oracle_search(&s);
            let exhaustive =
                oracle_search_stats(&s, &FaultSchedule::NONE, OracleMode::Exhaustive).0;
            assert_eq!(
                pruned.best_bound, exhaustive.best_bound,
                "best bound diverged at ({degree}, {minutes})"
            );
            assert_eq!(pruned.best, exhaustive.best);
            // Pruned evaluations are a subset of the exhaustive ones, with
            // identical values where both evaluated.
            assert!(pruned.tried.len() <= exhaustive.tried.len());
            for pair in &pruned.tried {
                assert!(
                    exhaustive.tried.contains(pair),
                    "pruned point {pair:?} not in exhaustive scan"
                );
            }
        }
    }

    #[test]
    fn batched_search_matches_unbatched_reference() {
        let s = scenario(3.0, 5.0);
        for mode in [OracleMode::Pruned, OracleMode::Exhaustive] {
            let batched = oracle_search_stats(&s, &FaultSchedule::NONE, mode).0;
            let reference = oracle_search_unbatched(&s, &FaultSchedule::NONE, mode);
            assert_eq!(batched, reference, "mode {mode:?}");
        }
        let faults = FaultSchedule::random(11, s.trace().duration());
        for mode in [OracleMode::Pruned, OracleMode::Exhaustive] {
            let batched = oracle_search_stats(&s, &faults, mode).0;
            let reference = oracle_search_unbatched(&s, &faults, mode);
            assert_eq!(batched, reference, "faulted mode {mode:?}");
        }
    }

    #[test]
    fn search_reports_lane_step_accounting() {
        let s = scenario(3.2, 5.0);
        let (outcome, stats) = oracle_search_stats(&s, &FaultSchedule::NONE, OracleMode::Pruned);
        assert!(!outcome.tried.is_empty());
        assert!(stats.lanes >= outcome.tried.len());
        assert!(stats.live_lane_steps > 0);
        assert!(
            stats.folded_lane_steps > 0,
            "the post-burst tail should fold"
        );
    }

    #[test]
    fn pruned_evaluates_fewer_runs_on_long_bursts() {
        let outcome = oracle_search(&scenario(3.2, 15.0));
        assert!(
            outcome.tried.len() < 37,
            "pruned search evaluated the whole grid ({} points)",
            outcome.tried.len()
        );
        assert_eq!(outcome.best.strategy, "Oracle");
    }
}
