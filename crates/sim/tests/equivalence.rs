//! Property suite for the PR's two fast paths: the lean-telemetry run and
//! the pruned Oracle search. Both are claimed *exact* — not approximate —
//! so every property here is an equality, not a tolerance check.

use dcs_core::{ControllerConfig, FixedBound, Greedy, Heuristic, SprintStrategy};
use dcs_faults::{FaultEvent, FaultKind, FaultSchedule};
use dcs_power::DataCenterSpec;
use dcs_server::{ChipSpec, ScalingModel, ServerSpec};
use dcs_sim::{
    build_upper_bound_table_stats, machine_parallelism, oracle_search, oracle_search_stats,
    oracle_search_unbatched, run_bound_batch, run_summary_with_faults, run_with_faults,
    with_worker_budget, OracleMode, Scenario,
};
use dcs_units::{Power, Ratio, Seconds};
use dcs_workload::yahoo_trace;
use proptest::prelude::*;

/// Per-lane reference for the batched engine: N independent lean runs.
fn independent_lanes(
    s: &Scenario,
    bounds: &[Ratio],
    faults: &FaultSchedule,
) -> Vec<dcs_sim::SimSummary> {
    bounds
        .iter()
        .map(|&b| run_summary_with_faults(s, Box::new(FixedBound::new(b)), faults))
        .collect()
}

fn scenario(seed: u64, degree: f64, minutes: f64) -> Scenario {
    Scenario::new(
        DataCenterSpec::paper_default().with_scale(2, 200),
        ControllerConfig::default(),
        yahoo_trace::with_burst(seed, degree, Seconds::from_minutes(minutes)),
    )
}

fn quiet_scenario(seed: u64) -> Scenario {
    Scenario::new(
        DataCenterSpec::paper_default().with_scale(2, 200),
        ControllerConfig::default(),
        yahoo_trace::baseline(seed),
    )
}

type StrategyCtor = fn() -> Box<dyn SprintStrategy>;

fn strategies() -> [StrategyCtor; 3] {
    [
        || Box::new(Greedy),
        || Box::new(FixedBound::new(Ratio::new(2.0))),
        || {
            Box::new(Heuristic::with_paper_flexibility(
                dcs_workload::Estimate::exact(2.0),
            ))
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A lean ([`dcs_sim::run_summary_with_faults`]) run equals the summary of
    /// a full run *exactly* — same admission accounting, same energy split,
    /// same flags — across strategies and bursty scenarios.
    #[test]
    fn lean_run_equals_full_summary_on_bursts(
        seed in 0u64..64,
        degree in 1.5..4.4f64,
        minutes in 0.5..20.0f64,
    ) {
        let s = scenario(seed, degree, minutes);
        for make in strategies() {
            let full = dcs_sim::run(&s, make());
            let lean = dcs_sim::run_summary_with_faults(&s, make(), &FaultSchedule::NONE);
            prop_assert_eq!(&lean.strategy, &full.strategy);
            prop_assert_eq!(lean, full.summarize());
        }
    }

    /// Same exactness on quiet traces (no burst, no sprinting).
    #[test]
    fn lean_run_equals_full_summary_when_quiet(seed in 0u64..64) {
        let s = quiet_scenario(seed);
        let full = dcs_sim::run(&s, Box::new(Greedy));
        let lean = dcs_sim::run_summary_with_faults(&s, Box::new(Greedy), &FaultSchedule::NONE);
        prop_assert_eq!(lean, full.summarize());
    }

    /// And on a degraded plant: a random fault schedule injected into both
    /// paths yields identical summaries.
    #[test]
    fn lean_run_equals_full_summary_under_faults(
        seed in 0u64..64,
        fault_seed in 0u64..64,
        degree in 1.5..4.0f64,
    ) {
        let s = scenario(seed, degree, 10.0);
        let faults = FaultSchedule::random(fault_seed, s.trace().duration());
        let full = run_with_faults(&s, Box::new(Greedy), &faults);
        let lean = run_summary_with_faults(&s, Box::new(Greedy), &faults);
        prop_assert_eq!(lean, full.summarize());
    }

    /// The pruned Oracle finds the same best bound — and the same best run,
    /// field for field — as the exhaustive scan, on random bursts.
    #[test]
    fn pruned_oracle_equals_exhaustive_on_bursts(
        seed in 0u64..32,
        degree in 1.5..4.4f64,
        minutes in 0.5..20.0f64,
    ) {
        let s = scenario(seed, degree, minutes);
        let pruned = oracle_search(&s);
        let exhaustive = oracle_search_stats(&s, &FaultSchedule::NONE, OracleMode::Exhaustive).0;
        prop_assert_eq!(pruned.best_bound, exhaustive.best_bound);
        prop_assert_eq!(pruned.best, exhaustive.best);
    }

    /// The same equivalence holds on a degraded plant, where sensor noise
    /// widens the saturation prune's demand cap.
    #[test]
    fn pruned_oracle_equals_exhaustive_under_faults(
        seed in 0u64..32,
        fault_seed in 0u64..64,
        degree in 1.5..4.0f64,
    ) {
        let s = scenario(seed, degree, 8.0);
        let faults = FaultSchedule::random(fault_seed, s.trace().duration());
        let pruned = oracle_search_stats(&s, &faults, OracleMode::Pruned).0;
        let exhaustive = oracle_search_stats(&s, &faults, OracleMode::Exhaustive).0;
        prop_assert_eq!(pruned.best_bound, exhaustive.best_bound);
        prop_assert_eq!(pruned.best, exhaustive.best);
    }

    /// Every point the pruned search *did* evaluate carries the identical
    /// performance value the exhaustive scan measured there.
    #[test]
    fn pruned_tried_points_are_a_subset_of_exhaustive(
        seed in 0u64..32,
        degree in 1.5..4.4f64,
    ) {
        let s = scenario(seed, degree, 10.0);
        let pruned = oracle_search(&s);
        let exhaustive = oracle_search_stats(&s, &FaultSchedule::NONE, OracleMode::Exhaustive).0;
        prop_assert!(pruned.tried.len() <= exhaustive.tried.len());
        for pair in &pruned.tried {
            prop_assert!(
                exhaustive.tried.contains(pair),
                "pruned point {:?} missing from exhaustive scan", pair
            );
        }
    }

    /// The batched multi-lane engine is *exactly* N independent runs: one
    /// trace pass over a random bound grid (duplicates and all) yields,
    /// lane for lane, the summary an independent [`FixedBound`] run
    /// produces — on random bursty scenarios.
    #[test]
    fn batched_lanes_equal_independent_runs(
        seed in 0u64..64,
        degree in 1.5..4.4f64,
        minutes in 0.5..20.0f64,
        raw_bounds in prop::collection::vec(1.0..4.8f64, 1..7),
    ) {
        let s = scenario(seed, degree, minutes);
        // Duplicate the first bound so the saturation dedup always has at
        // least one shared lane to exercise.
        let mut bounds: Vec<Ratio> = raw_bounds.iter().map(|&b| Ratio::new(b)).collect();
        bounds.push(bounds[0]);
        let faults = FaultSchedule::none();
        let batch = run_bound_batch(&s, &bounds, &faults);
        prop_assert_eq!(batch.stats.lanes, bounds.len());
        prop_assert_eq!(&batch.summaries, &independent_lanes(&s, &bounds, &faults));
    }

    /// The same lane-for-lane equality holds under random fault schedules,
    /// where lanes diverge through sensor noise, stale telemetry, and a
    /// degraded plant.
    #[test]
    fn batched_lanes_equal_independent_runs_under_faults(
        seed in 0u64..32,
        fault_seed in 0u64..64,
        degree in 1.5..4.4f64,
        raw_bounds in prop::collection::vec(1.0..4.8f64, 1..7),
    ) {
        let s = scenario(seed, degree, 10.0);
        let bounds: Vec<Ratio> = raw_bounds.iter().map(|&b| Ratio::new(b)).collect();
        let faults = FaultSchedule::random(fault_seed, s.trace().duration());
        let batch = run_bound_batch(&s, &bounds, &faults);
        prop_assert_eq!(&batch.summaries, &independent_lanes(&s, &bounds, &faults));
    }

    /// Quiet traces collapse to the shared representative lane and still
    /// report per-lane summaries identical to independent runs.
    #[test]
    fn batched_lanes_equal_independent_runs_when_quiet(
        seed in 0u64..64,
        raw_bounds in prop::collection::vec(1.0..4.8f64, 1..5),
    ) {
        let s = quiet_scenario(seed);
        let bounds: Vec<Ratio> = raw_bounds.iter().map(|&b| Ratio::new(b)).collect();
        let faults = FaultSchedule::none();
        let batch = run_bound_batch(&s, &bounds, &faults);
        prop_assert_eq!(&batch.summaries, &independent_lanes(&s, &bounds, &faults));
    }
}

/// Thread-shard invariance: the batched engine carves lanes into
/// fixed-size blocks independent of the worker count, so the same batch —
/// fault-free or degraded — run under worker budgets of 1, 2, and the
/// machine width yields bit-identical summaries *and* identical work
/// counters.
#[test]
fn batched_lanes_are_invariant_across_worker_budgets() {
    let s = scenario(7, 4.0, 12.0);
    // A grid wide enough to span several lane blocks after dedup.
    let bounds: Vec<Ratio> = (0..40)
        .map(|i| Ratio::new(1.0 + f64::from(i) * 0.09))
        .collect();
    let schedules = [
        FaultSchedule::none(),
        FaultSchedule::random(11, s.trace().duration()),
    ];
    for faults in &schedules {
        let reference = dcs_sim::with_worker_budget(1, || run_bound_batch(&s, &bounds, faults));
        for workers in [2usize, dcs_sim::machine_parallelism().max(4)] {
            let got = dcs_sim::with_worker_budget(workers, || run_bound_batch(&s, &bounds, faults));
            assert_eq!(got.summaries, reference.summaries, "workers {workers}");
            assert_eq!(got.stats, reference.stats, "workers {workers}");
        }
    }
}

/// Hyperscale: 1024 PDUs × 2 dense accelerator-class nodes of 128-core
/// chips (262,144 cores). Per-step cost is scale-invariant on the uniform
/// topology fast path, so the full batched stack runs unchanged; what
/// this guards is that its exactness holds at that scale. The batched
/// pruned Oracle equals the independent per-lane search, and the
/// sharded table build is identical under worker budgets of 1, 2 and the
/// machine width.
#[test]
fn hyperscale_batched_search_and_table_match_references() {
    let (pdus, servers) = (1024, 2);
    // 128 cores, 60 W idle, 6.5 W per busy core, in a 150 W-overhead
    // node. Normal operation holds 32 cores, so the maximum sprinting
    // degree stays at the paper's 4x and the 3.2x burst trace carries
    // over.
    let chip = ChipSpec::new(128, Power::from_watts(60.0), Power::from_watts(6.5));
    let cores = u64::from(chip.cores()) * (pdus * servers) as u64;
    assert!(cores >= 250_000, "only {cores} cores");
    let server = ServerSpec::new(chip, Power::from_watts(150.0), 32, ScalingModel::default());
    let spec = DataCenterSpec::paper_default()
        .with_server(server)
        .with_scale(pdus, servers);
    let config = ControllerConfig::default();
    let s = Scenario::new(
        spec.clone(),
        config.clone(),
        yahoo_trace::with_burst(1, 3.2, Seconds::from_minutes(15.0)),
    );
    let none = FaultSchedule::none();

    let (batched, stats) = oracle_search_stats(&s, &none, OracleMode::Pruned);
    assert!(
        stats.live_lane_steps > 0 && stats.unique_lanes > 0,
        "{stats:?}"
    );
    assert_eq!(
        batched,
        oracle_search_unbatched(&s, &none, OracleMode::Pruned),
        "batched pruned Oracle diverged from the independent per-lane runs"
    );

    let (durations, degrees) = ([1.0], [2.0, 3.0]);
    let build =
        || build_upper_bound_table_stats(&spec, &config, &durations, &degrees, OracleMode::Pruned);
    let (reference, stats) = with_worker_budget(1, build);
    assert!(
        stats.evaluations > 0 && stats.batch.unique_lanes > 0,
        "{stats:?}"
    );
    let mut budgets = vec![2, machine_parallelism()];
    budgets.dedup();
    for workers in budgets {
        let (table, _) = with_worker_budget(workers, build);
        assert_eq!(table, reference, "table diverged under {workers} workers");
    }
}

/// The data-parallel span fold is bitwise the scalar accounting: pushing a
/// real trace's samples through the `f64x4` group kernel and through
/// per-step `AdmissionLog::record` calls yields bit-identical integrals
/// for every lane in the group — no reassociation tolerance needed.
#[test]
fn group_fold_matches_admission_log_bitwise() {
    use dcs_sim::simd::{fold_span_group, F64x4};
    use dcs_workload::AdmissionLog;

    let trace = yahoo_trace::baseline(9);
    let span = trace.samples();
    let dt = trace.step();
    let cap = 1.1;
    let mut log = AdmissionLog::new();
    for &demand in span {
        log.record(demand, demand.min(cap), dt);
    }
    let mut accs = [F64x4::ZERO; 3];
    let invalid = fold_span_group(&mut accs, span, dt, cap);
    for acc in accs {
        let rebuilt = AdmissionLog::from_integrals(acc.0[0], acc.0[1], acc.0[2], invalid);
        assert_eq!(rebuilt, log);
    }
}

/// Early retirement: a derated breaker under a hard burst trips the
/// aggressive lanes mid-trace. A tripped lane is frozen to its terminal
/// summary, and that frozen summary must still match the independent run
/// bit for bit — while untripped lanes keep advancing live.
#[test]
fn tripped_lane_retires_early_and_still_matches() {
    let s = scenario(3, 4.2, 15.0);
    let burst_start = yahoo_trace::burst_start();
    let faults = FaultSchedule::new(vec![FaultEvent::new(
        burst_start,
        burst_start + Seconds::from_minutes(5.0),
        FaultKind::BreakerDerated { factor: 0.35 },
    )]);
    let bounds: Vec<Ratio> = [1.2, 2.0, 3.0, 4.2].map(Ratio::new).to_vec();
    let batch = run_bound_batch(&s, &bounds, &faults);
    let reference = independent_lanes(&s, &bounds, &faults);
    assert!(
        batch.summaries.iter().any(|l| l.tripped),
        "no lane tripped — the derating factor is not severe enough to \
         exercise early retirement"
    );
    assert!(
        batch.summaries.iter().any(|l| !l.tripped),
        "every lane tripped — nothing stayed live past the retirement"
    );
    assert_eq!(batch.summaries, reference);
}
