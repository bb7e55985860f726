//! Datacenter-level simulation harness for Data Center Sprinting.
//!
//! This crate drives the step kernel ([`dcs_core::FacilityState`] under a
//! [`dcs_core::SprintPolicy`], through [`dcs_core::step_cycle`]) with
//! demand traces and computes the paper's metrics. It provides:
//!
//! * [`Scenario`] — a facility spec + controller config + demand trace;
//! * [`run`] — simulate a scenario under any sprinting-degree strategy,
//!   producing a [`SimResult`] with per-step telemetry, admission
//!   accounting, and the additional-energy split;
//! * [`run_no_sprint`] — the paper's normalization baseline (normal cores
//!   only);
//! * [`run_uncontrolled`] — §VII-A's *uncontrolled chip-level sprinting*
//!   baseline, which either trips a breaker and blacks out the facility or
//!   must abandon the sprint just in time (Fig. 8a);
//! * [`run_power_capped`] — the §II DVFS power-capping baseline that never
//!   exceeds the rated limits (and never exceeds the NEC headroom's modest
//!   boost either);
//! * [`oracle_search`] — the Oracle strategy: a pruned search over
//!   constant sprinting-degree bounds (Fig. 9/10's "O" bars);
//!   [`oracle_search_stats`] takes a fault schedule and an [`OracleMode`]
//!   (`Exhaustive` is the historical full-grid fallback) and returns the
//!   batch work counters too. Every Oracle entry point, and the table
//!   builder's exhaustive columns, run one private wave driver over a
//!   candidate plan; only the evaluator differs;
//! * [`run_summary_with_faults`] — the lean-telemetry fast path: the
//!   identical controller-step sequence without materializing per-step
//!   records, for search loops that only consume aggregates;
//! * [`build_upper_bound_table`] — the Oracle-built table the Prediction
//!   strategy consumes (§V-A);
//! * [`run_bound_batch`] — the batched multi-lane engine: one pass over
//!   the trace advances a whole grid of `FixedBound` lanes in lockstep,
//!   bit-identical to independent runs (the Oracle search and the table
//!   builder submit their grids through it);
//! * [`parallel_map`] — the scoped-thread sweep helper used by the
//!   benches to parallelize parameter sweeps (nested calls run inline
//!   under a per-worker budget instead of oversubscribing the machine);
//! * [`simd`] — the hand-rolled `f64x4` kernel behind the batch engine's
//!   structure-of-arrays lane accumulators and span folds (bit-identical
//!   to the scalar path by construction);
//! * [`Supervisor`] — the supervised slow path the resumable searches
//!   run each chunk through: per-item panic isolation (`catch_unwind`),
//!   retries with capped exponential backoff, and a typed
//!   [`SimError::Sweep`] naming the item and its panic payload instead of
//!   a blanket abort. It runs on the calling thread and starts no threads;
//! * [`CheckpointStore`] + [`oracle_search_resumable`] /
//!   [`build_upper_bound_table_resumable`] — atomic, checksummed
//!   snapshots of completed lanes/cells so a killed provisioning sweep
//!   resumes from its last snapshot with bit-identical results;
//! * [`SimError`] — the typed error taxonomy (config / I/O / physics /
//!   harness) behind the resumable searches, the supervised executor and
//!   the bench binaries' distinct exit codes.
//!
//! # Examples
//!
//! ```
//! use dcs_core::{ControllerConfig, Greedy};
//! use dcs_power::DataCenterSpec;
//! use dcs_sim::{run, run_no_sprint, Scenario};
//! use dcs_units::Seconds;
//! use dcs_workload::yahoo_trace;
//!
//! let scenario = Scenario::new(
//!     DataCenterSpec::paper_default().with_scale(4, 200),
//!     ControllerConfig::default(),
//!     yahoo_trace::with_burst(1, 3.0, Seconds::from_minutes(5.0)),
//! );
//! let sprint = run(&scenario, Box::new(Greedy));
//! let base = run_no_sprint(&scenario);
//! assert!(sprint.improvement_over(&base) > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod capped;
mod checkpoint;
mod error;
mod oracle;
mod runner;
mod scenario;
pub mod simd;
mod sink;
mod supervisor;
mod sweep;
mod table_builder;
mod uncontrolled;

pub use batch::{run_bound_batch, BatchOutcome, BatchStats};
pub use capped::{run_power_capped, CappedPolicy};
pub use checkpoint::{
    fingerprint_of, fnv1a64, CheckpointStore, LoadedSnapshot, SkippedSnapshot, CHECKPOINT_SCHEMA,
};
pub use error::{SimError, SimErrorClass};
pub use oracle::{
    degree_grid, oracle_checkpoint_store, oracle_search, oracle_search_resumable,
    oracle_search_stats, oracle_search_unbatched, OracleMode, OracleOutcome,
};
pub use runner::{
    run, run_no_sprint, run_no_sprint_with_faults, run_summary_with_faults, run_with_faults,
};
pub use scenario::{Scenario, SimResult, SimSummary};
pub use sink::{RecordSink, SummaryFold};
pub use supervisor::{RetryPolicy, Supervisor};
pub use sweep::{machine_parallelism, parallel_map, with_worker_budget};
pub use table_builder::{
    build_upper_bound_table, build_upper_bound_table_resumable, build_upper_bound_table_stats,
    build_upper_bound_table_unbatched, table_checkpoint_store, TableBuildStats,
};
pub use uncontrolled::{
    run_uncontrolled, UncontrolledMode, UncontrolledPolicy, UncontrolledRecord, UncontrolledResult,
    UncontrolledSink,
};
