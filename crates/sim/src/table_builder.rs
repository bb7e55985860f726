//! Building the Prediction strategy's upper-bound table with the Oracle.

use crate::batch::{run_bound_batch, run_bound_batch_tapped, BatchStats, LaneTap};
use crate::checkpoint::{fingerprint_of, fnv1a64, CheckpointStore};
use crate::error::SimError;
use crate::oracle::{last_argmax, pruned_scan, scan_plan, ScanPlan, EXHAUST_BELOW};
use crate::scenario::SimSummary;
use crate::supervisor::Supervisor;
use crate::{degree_grid, oracle_search_unbatched, OracleMode, Scenario};
use dcs_core::{ControllerConfig, UpperBoundTable};
use dcs_faults::FaultSchedule;
use dcs_power::DataCenterSpec;
use dcs_units::{Ratio, Seconds};
use dcs_workload::{yahoo_trace, Trace};
use serde::{Deserialize, Serialize};

/// Work counters for a table build: cells filled, candidate-bound
/// evaluations performed across all cells, and the batched lane-step
/// accounting underneath them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableBuildStats {
    /// Grid cells filled (`durations × degrees`).
    pub cells: usize,
    /// Candidate-bound evaluations across all cells — what the unbatched
    /// build would have run as independent simulations.
    pub evaluations: usize,
    /// Lane-step accounting for the batched passes that served the
    /// evaluations.
    pub batch: BatchStats,
}

impl TableBuildStats {
    fn merge(&mut self, other: TableBuildStats) {
        self.cells += other.cells;
        self.evaluations += other.evaluations;
        self.batch.merge(other.batch);
    }
}

/// Builds the §V-A upper-bound table: for every (burst duration, burst
/// degree) grid cell, run the Oracle on a synthetic plateau burst and
/// record the optimal constant bound.
///
/// The build is *columnar*: all cells sharing a burst degree differ only
/// in where their burst ends, so their traces agree bitwise up to the
/// shortest burst's end, and a whole column is served by batched lanes
/// over shared passes (see [`crate::run_bound_batch`]). Columns run in
/// parallel. The table is *scale-free*: every store (UPS, TES) and every
/// rating in the facility is proportional to the server count, so a table
/// built on a reduced facility applies to the full one — which is how a
/// real deployment would precompute it cheaply.
///
/// # Panics
///
/// Panics if either axis is empty or not strictly ascending, or if a
/// degree is not greater than 1.
///
/// # Examples
///
/// ```no_run
/// use dcs_core::ControllerConfig;
/// use dcs_power::DataCenterSpec;
/// use dcs_sim::build_upper_bound_table;
///
/// let spec = DataCenterSpec::paper_default().with_scale(2, 200);
/// let table = build_upper_bound_table(
///     &spec,
///     &ControllerConfig::default(),
///     &[1.0, 5.0, 10.0, 15.0],
///     &[2.6, 3.0, 3.6],
/// );
/// assert_eq!(table.durations_min().len(), 4);
/// ```
#[must_use]
pub fn build_upper_bound_table(
    spec: &DataCenterSpec,
    config: &ControllerConfig,
    durations_min: &[f64],
    degrees: &[f64],
) -> UpperBoundTable {
    build_upper_bound_table_with(spec, config, durations_min, degrees, OracleMode::Pruned)
}

/// [`build_upper_bound_table`] with an explicit [`OracleMode`].
///
/// The pruned mode skips the Oracle's final full-telemetry run per cell —
/// the table wants only the bound — so a cell costs exactly the pruned
/// scan's lean evaluations, served batched. The exhaustive mode reproduces
/// the historical per-cell exhaustive search (each cell's grid as one
/// batch); both produce the identical table whenever each cell's
/// performance-vs-bound profile is unimodal.
///
/// # Panics
///
/// Panics if either axis is empty or not strictly ascending, or if a
/// degree is not greater than 1.
#[must_use]
pub fn build_upper_bound_table_with(
    spec: &DataCenterSpec,
    config: &ControllerConfig,
    durations_min: &[f64],
    degrees: &[f64],
    mode: OracleMode,
) -> UpperBoundTable {
    build_upper_bound_table_stats(spec, config, durations_min, degrees, mode).0
}

/// [`build_upper_bound_table_with`] plus the build's work counters.
///
/// # Panics
///
/// Panics if either axis is empty or not strictly ascending, or if a
/// degree is not greater than 1.
#[must_use]
pub fn build_upper_bound_table_stats(
    spec: &DataCenterSpec,
    config: &ControllerConfig,
    durations_min: &[f64],
    degrees: &[f64],
    mode: OracleMode,
) -> (UpperBoundTable, TableBuildStats) {
    validate_axes(durations_min, degrees);
    let built = match mode {
        OracleMode::Pruned => crate::parallel_map(degrees, |&degree| {
            pruned_column(spec, config, durations_min, degree)
        }),
        // The exhaustive fallback batches each cell's grid but keeps the
        // historical cell-at-a-time structure.
        OracleMode::Exhaustive => crate::parallel_map(degrees, |&degree| {
            exhaustive_column(spec, config, durations_min, degree)
        }),
    };
    let mut stats = TableBuildStats::default();
    let columns: Vec<Vec<Ratio>> = built
        .into_iter()
        .map(|(bounds, s)| {
            stats.merge(s);
            bounds
        })
        .collect();
    // Table cell order is durations outer, degrees inner.
    let mut bounds = Vec::with_capacity(durations_min.len() * degrees.len());
    for d in 0..durations_min.len() {
        for column in &columns {
            bounds.push(column[d]);
        }
    }
    (
        UpperBoundTable::new(durations_min.to_vec(), degrees.to_vec(), bounds)
            .expect("axes validated above"),
        stats,
    )
}

/// Checkpoint payload for a resumable table build: one entry per
/// completed column (degree), with the column's bounds as raw `f64` bits
/// for bit-exact resume and its work counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct TableColumnCkpt {
    /// Column index into the degrees axis.
    index: u64,
    /// One bound per duration, as `f64` bits.
    bounds: Vec<u64>,
    /// The column's build counters.
    stats: TableBuildStats,
}

/// Checkpoint payload wrapper (the snapshot's whole body).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct TableCkpt {
    /// Completed columns in completion order.
    columns: Vec<TableColumnCkpt>,
}

/// Opens (or reopens) a checkpoint store for a resumable table build over
/// these exact inputs. The fingerprint covers the spec, config, both
/// axes, and the mode, so a directory written for a different grid is
/// rejected on resume.
pub fn table_checkpoint_store(
    dir: impl Into<std::path::PathBuf>,
    spec: &DataCenterSpec,
    config: &ControllerConfig,
    durations_min: &[f64],
    degrees: &[f64],
    mode: OracleMode,
) -> Result<CheckpointStore, SimError> {
    let fp = fnv1a64(
        format!(
            "{:016x}:{:016x}:{:016x}:{:016x}:{:016x}",
            fingerprint_of(spec),
            fingerprint_of(config),
            fingerprint_of(&durations_min.to_vec()),
            fingerprint_of(&degrees.to_vec()),
            fingerprint_of(&mode)
        )
        .as_bytes(),
    );
    CheckpointStore::open(dir, "table", fp)
}

/// [`build_upper_bound_table_stats`] with supervised, checkpointed
/// execution: columns (one per degree) are built in waves sized to the
/// available parallelism, each wave runs under the supervisor's panic
/// isolation and retry policy, and a snapshot of every completed column
/// is written atomically after each wave. Killed at any snapshot boundary
/// (or resumed via the same `store`), the build continues from the last
/// intact snapshot and produces the identical table cell-for-cell —
/// column results are deterministic, and stats are merged in ascending
/// column order exactly as the plain build does.
pub fn build_upper_bound_table_resumable(
    spec: &DataCenterSpec,
    config: &ControllerConfig,
    durations_min: &[f64],
    degrees: &[f64],
    mode: OracleMode,
    supervisor: &Supervisor,
    store: &mut CheckpointStore,
) -> Result<(UpperBoundTable, TableBuildStats), SimError> {
    try_validate_axes(durations_min, degrees)?;
    let mut columns: Vec<Option<(Vec<Ratio>, TableBuildStats)>> =
        (0..degrees.len()).map(|_| None).collect();
    if let Some(loaded) = store.load_latest::<TableCkpt>()? {
        for col in &loaded.payload.columns {
            let index = col.index as usize;
            if index >= columns.len() || col.bounds.len() != durations_min.len() {
                return Err(SimError::checkpoint(
                    store.dir().display().to_string(),
                    format!("snapshot column {index} does not fit the requested grid"),
                ));
            }
            let bounds = col
                .bounds
                .iter()
                .map(|&bits| Ratio::new(f64::from_bits(bits)))
                .collect();
            columns[index] = Some((bounds, col.stats));
        }
    }

    let wave_size = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    loop {
        let missing: Vec<usize> = columns
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.is_none().then_some(i))
            .collect();
        if missing.is_empty() {
            break;
        }
        let wave: Vec<usize> = missing.into_iter().take(wave_size).collect();
        let report = supervisor.map(&wave, |&col| {
            let degree = degrees[col];
            match mode {
                OracleMode::Pruned => pruned_column(spec, config, durations_min, degree),
                OracleMode::Exhaustive => exhaustive_column(spec, config, durations_min, degree),
            }
        });
        // Supervisor item indices are wave-local; re-map the first failure
        // to its column index for the error report.
        if let Some(first) = report.failures.first() {
            return Err(SimError::Sweep {
                item: wave[first.item],
                attempts: first.attempts,
                message: first.cause.to_string(),
            });
        }
        let results = report
            .into_results()
            .expect("no failures recorded in this wave");
        for (&col, built) in wave.iter().zip(results) {
            columns[col] = Some(built);
        }
        let ckpt = TableCkpt {
            columns: columns
                .iter()
                .enumerate()
                .filter_map(|(i, c)| {
                    c.as_ref().map(|(bounds, stats)| TableColumnCkpt {
                        index: i as u64,
                        bounds: bounds.iter().map(|b| b.as_f64().to_bits()).collect(),
                        stats: *stats,
                    })
                })
                .collect(),
        };
        store.save(&ckpt)?;
    }

    // Assemble exactly as the plain build: stats merged in ascending
    // column order, cell order durations-outer / degrees-inner.
    let mut stats = TableBuildStats::default();
    let mut by_column: Vec<Vec<Ratio>> = Vec::with_capacity(degrees.len());
    for col in columns {
        let (bounds, col_stats) = col.expect("all columns completed above");
        stats.merge(col_stats);
        by_column.push(bounds);
    }
    let mut bounds = Vec::with_capacity(durations_min.len() * degrees.len());
    for d in 0..durations_min.len() {
        for column in &by_column {
            bounds.push(column[d]);
        }
    }
    let table = UpperBoundTable::new(durations_min.to_vec(), degrees.to_vec(), bounds)
        .map_err(SimError::from)?;
    Ok((table, stats))
}

/// Fallible [`validate_axes`], with messages matching the panicking path.
fn try_validate_axes(durations_min: &[f64], degrees: &[f64]) -> Result<(), SimError> {
    if durations_min.is_empty() || degrees.is_empty() {
        return Err(SimError::config("axes must be non-empty"));
    }
    if !degrees.iter().all(|&d| d > 1.0) {
        return Err(SimError::config("burst degrees must exceed 1"));
    }
    Ok(())
}

/// The pre-batching reference implementation: every cell is an independent
/// Oracle search, every evaluation an independent run.
///
/// This is an equality reference, not product: it is kept only as the
/// ground truth the batched build must match, for the unit tests, the
/// hyperscale equivalence test and the benchmark's correctness gates.
/// Build tables with [`build_upper_bound_table`] or
/// [`build_upper_bound_table_stats`]; this function gets no new variants.
///
/// # Panics
///
/// Panics if either axis is empty or not strictly ascending, or if a
/// degree is not greater than 1.
#[must_use]
pub fn build_upper_bound_table_unbatched(
    spec: &DataCenterSpec,
    config: &ControllerConfig,
    durations_min: &[f64],
    degrees: &[f64],
    mode: OracleMode,
) -> UpperBoundTable {
    validate_axes(durations_min, degrees);
    let cells: Vec<(f64, f64)> = durations_min
        .iter()
        .flat_map(|&l| degrees.iter().map(move |&b| (l, b)))
        .collect();
    let bounds: Vec<Ratio> = crate::parallel_map(&cells, |&(minutes, degree)| {
        let trace = yahoo_trace::with_burst(0, degree, Seconds::from_minutes(minutes));
        let scenario = Scenario::new(spec.clone(), config.clone(), trace);
        match mode {
            OracleMode::Pruned => pruned_scan(&scenario, &FaultSchedule::NONE).0,
            OracleMode::Exhaustive => {
                oracle_search_unbatched(&scenario, &FaultSchedule::NONE, OracleMode::Exhaustive)
                    .best_bound
            }
        }
    });
    UpperBoundTable::new(durations_min.to_vec(), degrees.to_vec(), bounds)
        .expect("axes validated above")
}

fn validate_axes(durations_min: &[f64], degrees: &[f64]) {
    assert!(
        !durations_min.is_empty() && !degrees.is_empty(),
        "axes must be non-empty"
    );
    assert!(
        degrees.iter().all(|&d| d > 1.0),
        "burst degrees must exceed 1"
    );
}

/// One pruned column: the per-cell pruned scans for every duration at one
/// degree. Returns one bound per duration (in input order) plus counters.
///
/// The column's cells differ only in where their burst ends, so every
/// evaluation wave runs as one tapped batched pass over the column's
/// longest trace: cells wanting the same bound share a lane, each tapping
/// the lane's state at its own burst's end (their traces agree bitwise up
/// to there), and a lane advances only as far as its last tap. The coarse
/// wave is shared by all cells; refinement then proceeds as per-cell
/// edge-expanding walks around each cell's coarse pivot, batched round by
/// round, so a cell evaluates only the bounds its own walk visits instead
/// of the reference's full refinement window. The walk selects the same
/// last candidate argmax as the reference scan on any
/// unimodal-with-plateaus profile — the assumption the pruned scan already
/// rests on, enforced by the pruned-vs-exhaustive and batched-vs-unbatched
/// equivalence checks.
fn pruned_column(
    spec: &DataCenterSpec,
    config: &ControllerConfig,
    durations_min: &[f64],
    degree: f64,
) -> (Vec<Ratio>, TableBuildStats) {
    let traces: Vec<Trace> = durations_min
        .iter()
        .map(|&minutes| yahoo_trace::with_burst(0, degree, Seconds::from_minutes(minutes)))
        .collect();
    let plans: Vec<ScanPlan> = traces
        .iter()
        .map(|t| scan_plan(spec, t, &FaultSchedule::NONE))
        .collect();
    // The longest burst has the longest trace and every shorter trace as a
    // bitwise prefix up to its own burst end.
    let master_idx = last_argmax(durations_min.iter().copied());
    let master = &traces[master_idx];
    let diverge: Vec<usize> = traces
        .iter()
        .map(|t| {
            master
                .samples()
                .iter()
                .zip(t.samples())
                .position(|(a, b)| a != b)
                .unwrap_or(t.len().min(master.len()))
        })
        .collect();
    let mut values: Vec<Vec<Option<f64>>> = plans
        .iter()
        .map(|p| (0..p.len()).map(|_| None).collect())
        .collect();
    let mut stats = TableBuildStats {
        cells: durations_min.len(),
        ..TableBuildStats::default()
    };

    // One evaluation wave: the requested (cell, plan position) pairs run as
    // a single tapped batch — cells wanting the same bound share a lane.
    let wave = |requests: &[(usize, Vec<usize>)],
                values: &mut Vec<Vec<Option<f64>>>,
                stats: &mut TableBuildStats| {
        let mut bounds: Vec<Ratio> = Vec::new();
        let mut taps: Vec<LaneTap<'_>> = Vec::new();
        let mut slots: Vec<(usize, usize)> = Vec::new();
        for &(cell, ref positions) in requests {
            for &p in positions {
                let b = plans[cell].bound(p);
                let lane = bounds.iter().position(|&x| x == b).unwrap_or_else(|| {
                    bounds.push(b);
                    bounds.len() - 1
                });
                taps.push(LaneTap {
                    lane,
                    at: diverge[cell],
                    tail: &traces[cell],
                });
                slots.push((cell, p));
            }
        }
        if taps.is_empty() {
            return;
        }
        let (summaries, bstats) = run_bound_batch_tapped(spec, config, master, &bounds, &taps);
        stats.batch.merge(bstats);
        stats.evaluations += taps.len();
        for (&(cell, p), s) in slots.iter().zip(&summaries) {
            values[cell][p] = Some(s.average_performance());
        }
    };

    let first: Vec<(usize, Vec<usize>)> = (0..plans.len())
        .map(|c| (c, plans[c].first_positions()))
        .collect();
    wave(&first, &mut values, &mut stats);

    // Per-cell refinement walks, batched round by round: each round sends
    // every unfinished cell's next unevaluated window positions as one
    // tapped wave. A walk extends its window downward while the window
    // argmax (or a value tied with it) sits on the lower edge, upward
    // while the argmax sits on the upper edge, and finishes when the
    // argmax is interior — the last candidate argmax.
    const STEP: usize = 2;
    struct Walk {
        lo: usize,
        hi: usize,
        done: bool,
    }
    let mut walks: Vec<Walk> = plans
        .iter()
        .enumerate()
        .map(|(c, p)| {
            let m = p.len();
            if m <= EXHAUST_BELOW {
                // The first wave already evaluated every candidate.
                Walk {
                    lo: 0,
                    hi: m - 1,
                    done: true,
                }
            } else {
                let pivot = p.pivot(&values[c]);
                Walk {
                    lo: pivot.saturating_sub(1),
                    hi: (pivot + 1).min(m - 1),
                    done: false,
                }
            }
        })
        .collect();
    loop {
        let mut requests: Vec<(usize, Vec<usize>)> = Vec::new();
        for (c, w) in walks.iter_mut().enumerate() {
            if w.done {
                continue;
            }
            let m = plans[c].len();
            loop {
                let need: Vec<usize> = (w.lo..=w.hi).filter(|&p| values[c][p].is_none()).collect();
                if !need.is_empty() {
                    requests.push((c, need));
                    break;
                }
                let v = &values[c];
                let b = w.lo + last_argmax((w.lo..=w.hi).map(|p| v[p].expect("window evaluated")));
                if (b == w.lo || v[w.lo] == v[b]) && w.lo > 0 {
                    w.lo = w.lo.saturating_sub(STEP);
                    continue;
                }
                if b == w.hi && w.hi < m - 1 {
                    w.hi = (w.hi + STEP).min(m - 1);
                    continue;
                }
                w.done = true;
                break;
            }
        }
        if requests.is_empty() {
            break;
        }
        wave(&requests, &mut values, &mut stats);
    }

    let bounds = (0..plans.len())
        .map(|c| plans[c].select(&values[c]).0)
        .collect();
    (bounds, stats)
}

/// One exhaustive column: each cell's full degree grid as one batch, with
/// the historical `max_by` (last-of-ties) selection.
fn exhaustive_column(
    spec: &DataCenterSpec,
    config: &ControllerConfig,
    durations_min: &[f64],
    degree: f64,
) -> (Vec<Ratio>, TableBuildStats) {
    let grid = degree_grid(spec);
    let mut stats = TableBuildStats {
        cells: durations_min.len(),
        ..TableBuildStats::default()
    };
    let bounds = durations_min
        .iter()
        .map(|&minutes| {
            let trace = yahoo_trace::with_burst(0, degree, Seconds::from_minutes(minutes));
            let scenario = Scenario::new(spec.clone(), config.clone(), trace);
            let batch = run_bound_batch(&scenario, &grid, &FaultSchedule::NONE);
            stats.batch.merge(batch.stats);
            stats.evaluations += grid.len();
            grid[last_argmax(batch.summaries.iter().map(SimSummary::average_performance))]
        })
        .collect();
    (bounds, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_shape_and_monotone_tendency() {
        let spec = DataCenterSpec::paper_default().with_scale(1, 200);
        let table =
            build_upper_bound_table(&spec, &ControllerConfig::default(), &[1.0, 15.0], &[3.2]);
        // Short bursts allow a looser bound than long bursts.
        let short = table.lookup(Seconds::from_minutes(1.0), 3.2);
        let long = table.lookup(Seconds::from_minutes(15.0), 3.2);
        assert!(short >= long, "short {short} < long {long}");
        assert!(long >= Ratio::ONE);
    }

    #[test]
    #[should_panic(expected = "burst degrees must exceed 1")]
    fn sub_one_degree_panics() {
        let spec = DataCenterSpec::paper_default().with_scale(1, 200);
        let _ = build_upper_bound_table(&spec, &ControllerConfig::default(), &[5.0], &[0.8]);
    }

    #[test]
    fn pruned_table_matches_exhaustive() {
        let spec = DataCenterSpec::paper_default().with_scale(1, 200);
        let config = ControllerConfig::default();
        let durations = [1.0, 15.0];
        let degrees = [2.0, 3.2];
        let pruned =
            build_upper_bound_table_with(&spec, &config, &durations, &degrees, OracleMode::Pruned);
        let exhaustive = build_upper_bound_table_with(
            &spec,
            &config,
            &durations,
            &degrees,
            OracleMode::Exhaustive,
        );
        for &minutes in &durations {
            for &degree in &degrees {
                assert_eq!(
                    pruned.lookup(Seconds::from_minutes(minutes), degree),
                    exhaustive.lookup(Seconds::from_minutes(minutes), degree),
                    "cell ({minutes} min, {degree}x) diverged"
                );
            }
        }
    }

    #[test]
    fn batched_table_matches_unbatched_reference() {
        let spec = DataCenterSpec::paper_default().with_scale(1, 200);
        let config = ControllerConfig::default();
        // Degrees straddling the small-grid (tapped) and large-grid
        // (chained) column paths.
        let durations = [1.0, 5.0];
        let degrees = [2.0, 3.2];
        for mode in [OracleMode::Pruned, OracleMode::Exhaustive] {
            let (batched, stats) =
                build_upper_bound_table_stats(&spec, &config, &durations, &degrees, mode);
            let unbatched =
                build_upper_bound_table_unbatched(&spec, &config, &durations, &degrees, mode);
            assert!(stats.evaluations > 0, "mode {mode:?}");
            assert!(stats.batch.total_lane_steps() > 0, "mode {mode:?}");
            assert_eq!(stats.cells, durations.len() * degrees.len());
            for &minutes in &durations {
                for &degree in &degrees {
                    assert_eq!(
                        batched.lookup(Seconds::from_minutes(minutes), degree),
                        unbatched.lookup(Seconds::from_minutes(minutes), degree),
                        "mode {mode:?} cell ({minutes} min, {degree}x) diverged"
                    );
                }
            }
        }
    }
}
