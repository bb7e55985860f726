//! Chaos/soak suite for the supervised execution layer.
//!
//! Every property here is an *equality*: supervised or resumable runs
//! under injected harness faults — worker panics, deadline-tripping
//! stalls, kills at snapshot boundaries, truncated and bit-flipped
//! snapshots — must produce outputs bit-identical to clean, unsupervised
//! runs. The PR 3 batched-vs-independent oracles make that checkable.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use dcs_core::ControllerConfig;
use dcs_faults::{ChaosSchedule, FaultSchedule};
use dcs_power::DataCenterSpec;
use dcs_sim::{
    build_upper_bound_table_resumable, build_upper_bound_table_stats, oracle_checkpoint_store,
    oracle_search_resumable, oracle_search_stats, parallel_map, table_checkpoint_store,
    with_worker_budget, OracleMode, RetryPolicy, Scenario, SimError, Supervisor,
};
use dcs_units::Seconds;
use dcs_workload::yahoo_trace;
use proptest::prelude::*;

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A unique scratch directory per call (pid + counter), cleaned by the
/// caller on success and harmless to leave behind in temp on failure.
fn scratch_dir(tag: &str) -> PathBuf {
    let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("dcs-chaos-{}-{}-{}", tag, std::process::id(), n))
}

fn scenario(degree: f64, minutes: f64) -> Scenario {
    Scenario::new(
        DataCenterSpec::paper_default().with_scale(2, 50),
        ControllerConfig::default(),
        yahoo_trace::with_burst(1, degree, Seconds::from_minutes(minutes)),
    )
}

// --- Supervised map vs. plain parallel_map ------------------------------

#[test]
fn supervised_map_clean_path_is_bit_identical() {
    let inputs: Vec<u64> = (0..40).collect();
    let f = |&x: &u64| {
        // A float-heavy closure: any re-ordering or double-evaluation bug
        // would show up in the bits.
        (0..100).fold(x as f64, |acc, i| acc + (i as f64).sqrt() * 1e-3)
    };
    let plain = parallel_map(&inputs, f);
    let supervised = Supervisor::new()
        .with_retry(RetryPolicy::default())
        .map(&inputs, f)
        .into_results()
        .expect("clean run has no failures");
    assert_eq!(
        plain.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        supervised.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );
}

#[test]
fn supervised_map_under_random_chaos_is_bit_identical() {
    let inputs: Vec<u64> = (0..30).collect();
    let f = |&x: &u64| (x as f64).sin() * 1e6;
    let clean = parallel_map(&inputs, f);
    for seed in 0..4_u64 {
        let chaos = ChaosSchedule::random(seed, inputs.len());
        let sup = Supervisor::new()
            .with_retry(RetryPolicy::attempts(3).with_deadline_ms(2_000))
            .with_chaos(chaos.clone());
        let report = sup.map(&inputs, f);
        assert!(
            report.is_complete(),
            "seed {seed}: failures {:?}",
            report.failures
        );
        // Every chaos-perturbed item must appear in the recovery records.
        let perturbed: Vec<usize> = chaos.events().iter().map(|e| e.item).collect();
        for r in &report.recovered {
            assert!(perturbed.contains(&r.item), "seed {seed}: item {}", r.item);
        }
        let results = report.into_results().unwrap();
        assert_eq!(
            clean.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            results.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "seed {seed}"
        );
    }
}

#[test]
fn permanent_failure_names_item_and_payload() {
    let inputs: Vec<usize> = (0..12).collect();
    let report = Supervisor::new()
        .with_retry(RetryPolicy::attempts(2))
        .map(&inputs, |&x| {
            if x == 9 {
                panic!("cell 9 diverged");
            }
            x
        });
    assert_eq!(report.failures.len(), 1);
    assert_eq!(report.failures[0].item, 9);
    assert_eq!(report.failures[0].attempts, 2);
    let err = report.into_results().expect_err("must surface");
    let msg = err.to_string();
    assert!(
        msg.contains("item 9") && msg.contains("cell 9 diverged"),
        "{msg}"
    );
}

// --- Resumable Oracle search --------------------------------------------

#[test]
fn resumable_oracle_matches_plain_search_clean_and_faulted() {
    let s = scenario(3.0, 5.0);
    let schedules = [
        FaultSchedule::NONE,
        FaultSchedule::random(7, s.trace().duration()),
        FaultSchedule::random(23, s.trace().duration()),
        // Whole-run physical faults: no lane folds, every lane-step live.
        FaultSchedule::random_physical(7, s.trace().duration()),
        FaultSchedule::random_physical(23, s.trace().duration()),
    ];
    for faults in &schedules {
        for mode in [OracleMode::Pruned, OracleMode::Exhaustive] {
            let (plain, _) = oracle_search_stats(&s, faults, mode);
            let dir = scratch_dir("oracle-clean");
            let mut store = oracle_checkpoint_store(&dir, &s, faults, mode).unwrap();
            let sup = Supervisor::new();
            let (resumable, _) =
                oracle_search_resumable(&s, faults, mode, &sup, &mut store).unwrap();
            assert_eq!(plain, resumable, "mode {mode:?}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

#[test]
fn resumable_oracle_survives_injected_chaos() {
    let s = scenario(3.2, 15.0);
    let faults = FaultSchedule::NONE;
    let (plain, _) = oracle_search_stats(&s, &faults, OracleMode::Pruned);
    // Chaos: chunk 0 panics once, chunk 1 stalls once; retries recover.
    let chaos = ChaosSchedule::panic_on(0, 0).with(dcs_faults::ChaosEvent {
        item: 1,
        attempt: 0,
        kind: dcs_faults::ChaosKind::Delay { millis: 5 },
    });
    let sup = Supervisor::new()
        .with_retry(RetryPolicy::attempts(3))
        .with_chaos(chaos);
    let dir = scratch_dir("oracle-chaos");
    let mut store = oracle_checkpoint_store(&dir, &s, &faults, OracleMode::Pruned).unwrap();
    let (outcome, _) =
        oracle_search_resumable(&s, &faults, OracleMode::Pruned, &sup, &mut store).unwrap();
    assert_eq!(plain, outcome);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn oracle_kill_and_resume_at_every_boundary_is_bit_identical() {
    let s = scenario(3.2, 15.0);
    let faults = FaultSchedule::random(11, s.trace().duration());
    let mode = OracleMode::Pruned;
    // Uninterrupted resumable run: the reference outcome AND stats.
    let dir = scratch_dir("oracle-ref");
    let mut store = oracle_checkpoint_store(&dir, &s, &faults, mode).unwrap();
    let sup = Supervisor::new();
    let (want, want_stats) = oracle_search_resumable(&s, &faults, mode, &sup, &mut store).unwrap();
    let total_saves = store.saves();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(total_saves >= 1, "search must checkpoint at least once");
    assert_eq!(want, oracle_search_stats(&s, &faults, mode).0);

    // Kill after every possible snapshot boundary, then resume.
    for kill_at in 1..=total_saves {
        let dir = scratch_dir("oracle-kill");
        let mut store = oracle_checkpoint_store(&dir, &s, &faults, mode)
            .unwrap()
            .with_kill_after(kill_at);
        let err = oracle_search_resumable(&s, &faults, mode, &sup, &mut store)
            .expect_err("armed kill must interrupt");
        assert!(matches!(err, SimError::Interrupted { .. }), "{err}");
        drop(store);
        // Fresh store over the same directory: resume to completion.
        let mut store = oracle_checkpoint_store(&dir, &s, &faults, mode).unwrap();
        let (got, got_stats) =
            oracle_search_resumable(&s, &faults, mode, &sup, &mut store).unwrap();
        assert_eq!(want, got, "kill at snapshot {kill_at}");
        assert_eq!(
            want_stats, got_stats,
            "stats diverged at snapshot {kill_at}"
        );
        assert!(
            store.saves() < total_saves,
            "resume must not redo completed chunks (kill {kill_at}: {} vs {total_saves})",
            store.saves()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn oracle_resume_rejects_mismatched_inputs() {
    let s = scenario(3.0, 5.0);
    let dir = scratch_dir("oracle-mismatch");
    let mut store =
        oracle_checkpoint_store(&dir, &s, &FaultSchedule::NONE, OracleMode::Pruned).unwrap();
    let sup = Supervisor::new();
    oracle_search_resumable(
        &s,
        &FaultSchedule::NONE,
        OracleMode::Pruned,
        &sup,
        &mut store,
    )
    .unwrap();
    // Same directory, different scenario: fingerprint must not match.
    let other = scenario(2.6, 1.0);
    let mut store =
        oracle_checkpoint_store(&dir, &other, &FaultSchedule::NONE, OracleMode::Pruned).unwrap();
    let err = oracle_search_resumable(
        &other,
        &FaultSchedule::NONE,
        OracleMode::Pruned,
        &sup,
        &mut store,
    )
    .expect_err("mismatched inputs must not resume");
    assert!(err.to_string().contains("fingerprint"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

// --- Resumable table build ----------------------------------------------

const DURATIONS: [f64; 2] = [1.0, 5.0];
const DEGREES: [f64; 3] = [2.0, 2.6, 3.2];

fn table_inputs() -> (DataCenterSpec, ControllerConfig) {
    (
        DataCenterSpec::paper_default().with_scale(1, 50),
        ControllerConfig::default(),
    )
}

#[test]
fn resumable_table_matches_plain_build() {
    let (spec, config) = table_inputs();
    for mode in [OracleMode::Pruned, OracleMode::Exhaustive] {
        let (want, want_stats) =
            build_upper_bound_table_stats(&spec, &config, &DURATIONS, &DEGREES, mode);
        // The resumable build's wave width follows the worker budget, so
        // run it unpinned and pinned to one and to three workers.
        for budget in [None, Some(1), Some(3)] {
            let dir = scratch_dir("table-clean");
            let mut store =
                table_checkpoint_store(&dir, &spec, &config, &DURATIONS, &DEGREES, mode).unwrap();
            let sup = Supervisor::new();
            let mut build = || {
                build_upper_bound_table_resumable(
                    &spec, &config, &DURATIONS, &DEGREES, mode, &sup, &mut store,
                )
            };
            let (got, got_stats) = match budget {
                None => build(),
                Some(workers) => with_worker_budget(workers, build),
            }
            .unwrap();
            assert_eq!(want, got, "mode {mode:?}, budget {budget:?}");
            assert_eq!(want_stats, got_stats, "mode {mode:?}, budget {budget:?}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

#[test]
fn table_kill_and_resume_at_every_boundary_is_bit_identical() {
    let (spec, config) = table_inputs();
    let mode = OracleMode::Pruned;
    let (want, want_stats) =
        build_upper_bound_table_stats(&spec, &config, &DURATIONS, &DEGREES, mode);
    let sup = Supervisor::new();
    // Measure how many snapshots an uninterrupted build writes.
    let dir = scratch_dir("table-ref");
    let mut store =
        table_checkpoint_store(&dir, &spec, &config, &DURATIONS, &DEGREES, mode).unwrap();
    build_upper_bound_table_resumable(&spec, &config, &DURATIONS, &DEGREES, mode, &sup, &mut store)
        .unwrap();
    let total_saves = store.saves();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(total_saves >= 1);

    for kill_at in 1..=total_saves {
        let dir = scratch_dir("table-kill");
        let mut store = table_checkpoint_store(&dir, &spec, &config, &DURATIONS, &DEGREES, mode)
            .unwrap()
            .with_kill_after(kill_at);
        let err = build_upper_bound_table_resumable(
            &spec, &config, &DURATIONS, &DEGREES, mode, &sup, &mut store,
        )
        .expect_err("armed kill must interrupt");
        assert!(matches!(err, SimError::Interrupted { .. }), "{err}");
        let mut store =
            table_checkpoint_store(&dir, &spec, &config, &DURATIONS, &DEGREES, mode).unwrap();
        let (got, got_stats) = build_upper_bound_table_resumable(
            &spec, &config, &DURATIONS, &DEGREES, mode, &sup, &mut store,
        )
        .unwrap();
        assert_eq!(want, got, "kill at snapshot {kill_at}");
        assert_eq!(
            want_stats, got_stats,
            "stats diverged at snapshot {kill_at}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn table_build_survives_chaos_with_retries() {
    let (spec, config) = table_inputs();
    let mode = OracleMode::Pruned;
    let (want, _) = build_upper_bound_table_stats(&spec, &config, &DURATIONS, &DEGREES, mode);
    // Column 0 panics on its first attempt.
    let chaos = ChaosSchedule::panic_on(0, 0);
    let sup = Supervisor::new()
        .with_retry(RetryPolicy::attempts(2))
        .with_chaos(chaos);
    let dir = scratch_dir("table-chaos");
    let mut store =
        table_checkpoint_store(&dir, &spec, &config, &DURATIONS, &DEGREES, mode).unwrap();
    let (got, _) = build_upper_bound_table_resumable(
        &spec, &config, &DURATIONS, &DEGREES, mode, &sup, &mut store,
    )
    .unwrap();
    assert_eq!(want, got);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn table_snapshot_corruption_falls_back_and_still_matches() {
    let (spec, config) = table_inputs();
    let mode = OracleMode::Pruned;
    let (want, _) = build_upper_bound_table_stats(&spec, &config, &DURATIONS, &DEGREES, mode);
    let sup = Supervisor::new();
    // Run to the second snapshot, then kill.
    let dir = scratch_dir("table-corrupt");
    let mut store = table_checkpoint_store(&dir, &spec, &config, &DURATIONS, &DEGREES, mode)
        .unwrap()
        .with_kill_after(2);
    let _ = build_upper_bound_table_resumable(
        &spec, &config, &DURATIONS, &DEGREES, mode, &sup, &mut store,
    )
    .expect_err("armed kill");
    // Truncate the newest snapshot mid-write: resume must fall back to the
    // previous good one and still complete identically.
    let mut snaps: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    snaps.sort();
    let newest = snaps.last().expect("two snapshots written").clone();
    let text = std::fs::read_to_string(&newest).unwrap();
    std::fs::write(&newest, &text[..text.len() / 2]).unwrap();
    let mut store =
        table_checkpoint_store(&dir, &spec, &config, &DURATIONS, &DEGREES, mode).unwrap();
    let (got, _) = build_upper_bound_table_resumable(
        &spec, &config, &DURATIONS, &DEGREES, mode, &sup, &mut store,
    )
    .unwrap();
    assert_eq!(want, got, "fallback to previous snapshot diverged");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn table_resumable_rejects_bad_axes_with_config_error() {
    let (spec, config) = table_inputs();
    let dir = scratch_dir("table-axes");
    let mut store =
        table_checkpoint_store(&dir, &spec, &config, &[5.0], &[0.8], OracleMode::Pruned).unwrap();
    let err = build_upper_bound_table_resumable(
        &spec,
        &config,
        &[5.0],
        &[0.8],
        OracleMode::Pruned,
        &Supervisor::new(),
        &mut store,
    )
    .expect_err("degree 0.8 is invalid");
    assert_eq!(err.exit_code(), 3);
    assert!(
        err.to_string().contains("burst degrees must exceed 1"),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn table_resumable_rejects_unsorted_axes_before_any_snapshot() {
    let (spec, config) = table_inputs();
    let durations = [15.0, 1.0, 5.0];
    let degrees = [2.0, 3.2];
    let dir = scratch_dir("table-unsorted");
    let mut store = table_checkpoint_store(
        &dir,
        &spec,
        &config,
        &durations,
        &degrees,
        OracleMode::Pruned,
    )
    .unwrap();
    let err = build_upper_bound_table_resumable(
        &spec,
        &config,
        &durations,
        &degrees,
        OracleMode::Pruned,
        &Supervisor::new(),
        &mut store,
    )
    .expect_err("unsorted durations are invalid");
    assert!(matches!(err, SimError::Config { .. }), "{err}");
    assert!(err.to_string().contains("strictly ascending"), "{err}");
    assert_eq!(store.saves(), 0, "no column may be built or saved");
    let snapshots = std::fs::read_dir(&dir).map_or(0, |entries| entries.count());
    assert_eq!(snapshots, 0, "a rejected build must leave no snapshot");
    let _ = std::fs::remove_dir_all(&dir);
}

// --- Randomized soak: chaos + fault schedules, small scale --------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn resumable_oracle_with_random_faults_and_chaos_matches(seed in 0_u64..1_000) {
        let s = scenario(3.0, 5.0);
        let faults = FaultSchedule::random(seed, s.trace().duration());
        let (plain, _) = oracle_search_stats(&s, &faults, OracleMode::Pruned);
        let sup = Supervisor::new()
            .with_retry(RetryPolicy::attempts(3))
            .with_chaos(ChaosSchedule::random(seed, 16));
        let dir = scratch_dir("oracle-soak");
        let mut store =
            oracle_checkpoint_store(&dir, &s, &faults, OracleMode::Pruned).unwrap();
        let (outcome, _) =
            oracle_search_resumable(&s, &faults, OracleMode::Pruned, &sup, &mut store).unwrap();
        prop_assert_eq!(plain, outcome);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
