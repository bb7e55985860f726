//! The planner's work counters, pinned.
//!
//! The Oracle's batch counters and the table builder's evaluation counts
//! are deterministic functions of the inputs: they count which candidate
//! bounds were submitted in which batches, not how long anything took.
//! Pinning them on a fixed small plant makes "this path submits the same
//! batches as before" a test rather than a benchmark reading.

use dcs_core::ControllerConfig;
use dcs_faults::FaultSchedule;
use dcs_power::DataCenterSpec;
use dcs_sim::{
    build_upper_bound_table_stats, oracle_search_stats, BatchStats, OracleMode, Scenario,
    TableBuildStats,
};
use dcs_units::Seconds;
use dcs_workload::yahoo_trace;

fn scenario() -> Scenario {
    Scenario::new(
        DataCenterSpec::paper_default().with_scale(2, 50),
        ControllerConfig::default(),
        yahoo_trace::with_burst(1, 3.2, Seconds::from_minutes(15.0)),
    )
}

fn batch(lanes: usize, unique_lanes: usize, live: u64, folded: u64) -> BatchStats {
    BatchStats {
        lanes,
        unique_lanes,
        live_lane_steps: live,
        folded_lane_steps: folded,
    }
}

#[test]
fn oracle_batch_counters_are_pinned() {
    let s = scenario();
    let faulted = FaultSchedule::random_physical(5, s.trace().duration());
    let cases = [
        (
            FaultSchedule::NONE,
            OracleMode::Pruned,
            batch(19, 19, 16_800, 12_300),
        ),
        (
            FaultSchedule::NONE,
            OracleMode::Exhaustive,
            batch(37, 37, 32_700, 23_100),
        ),
        // Whole-run physical faults disable the retirement fold.
        (
            faulted.clone(),
            OracleMode::Pruned,
            batch(19, 19, 29_100, 0),
        ),
        (faulted, OracleMode::Exhaustive, batch(37, 37, 55_800, 0)),
    ];
    for (faults, mode, want) in cases {
        let (_, got) = oracle_search_stats(&s, &faults, mode);
        assert_eq!(
            got,
            want,
            "mode {mode:?}, {} fault events",
            faults.events().len()
        );
    }
}

#[test]
fn table_build_counters_are_pinned() {
    let spec = DataCenterSpec::paper_default().with_scale(1, 50);
    let config = ControllerConfig::default();
    let durations = [1.0, 5.0, 15.0];
    let degrees = [2.0, 2.6, 3.2];
    let cases = [
        (
            OracleMode::Pruned,
            TableBuildStats {
                cells: 9,
                evaluations: 74,
                batch: batch(33, 33, 29_400, 78_420),
            },
        ),
        (
            OracleMode::Exhaustive,
            TableBuildStats {
                cells: 9,
                evaluations: 333,
                batch: batch(333, 270, 112_320, 295_380),
            },
        ),
    ];
    for (mode, want) in cases {
        let (_, got) = build_upper_bound_table_stats(&spec, &config, &durations, &degrees, mode);
        assert_eq!(got, want, "mode {mode:?}");
    }
}
