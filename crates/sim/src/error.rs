//! The typed error taxonomy for the simulation harness.
//!
//! [`SimError`] classifies every way a sim-layer computation can fail into
//! five coarse classes — configuration, I/O, physics, harness, and the
//! live service — each with its own process exit code, so the
//! `simulate` and `sprintd` binaries can report *what kind* of thing went
//! wrong without parsing message strings. The physics variants wrap the
//! layer-local error enums (`UnitError`, `BreakerError`, `TraceError`,
//! `TableError`) rather than flattening them, so no information is lost
//! crossing the sim boundary.

use dcs_breaker::BreakerError;
use dcs_core::TableError;
use dcs_units::UnitError;
use dcs_workload::TraceError;

/// Coarse failure class of a [`SimError`], mapping one-to-one onto the
/// process exit codes the bench binaries use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimErrorClass {
    /// The inputs were malformed or inconsistent (exit code 3).
    Config,
    /// The filesystem or serialization layer failed (exit code 4).
    Io,
    /// The plant model rejected a physically invalid quantity (exit 5).
    Physics,
    /// The execution harness itself failed: a sweep item exhausted its
    /// retries, a checkpoint was unusable, or a run was deliberately
    /// interrupted (exit code 6).
    Harness,
    /// The live sprint-control service failed: the listener could not
    /// bind, the decision engine died, or a shutdown went wrong (exit
    /// code 7).
    Service,
}

impl SimErrorClass {
    /// The process exit code for this class (reserving 1 for generic
    /// failure and 2 for CLI usage errors).
    #[must_use]
    pub fn exit_code(self) -> u8 {
        match self {
            SimErrorClass::Config => 3,
            SimErrorClass::Io => 4,
            SimErrorClass::Physics => 5,
            SimErrorClass::Harness => 6,
            SimErrorClass::Service => 7,
        }
    }
}

/// A typed simulation-layer error.
///
/// Constructed where outside input enters (the `simulate` config, the
/// service config), by the resumable Oracle search and table builder, and
/// by the supervised executor when an item exhausts its retry budget.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A scenario, grid, or CLI configuration was malformed.
    Config {
        /// What was wrong with the configuration.
        message: String,
    },
    /// A fault schedule was malformed (bad window, bad severity).
    Faults {
        /// What was wrong with the schedule.
        message: String,
    },
    /// Reading or writing a file failed.
    Io {
        /// The offending path.
        path: String,
        /// The underlying failure.
        message: String,
    },
    /// A physical quantity was rejected by the units layer.
    Unit(UnitError),
    /// A breaker operation was invalid.
    Breaker(BreakerError),
    /// A demand trace was malformed.
    Trace(TraceError),
    /// An upper-bound table was malformed.
    Table(TableError),
    /// A supervised sweep item failed on every attempt.
    Sweep {
        /// Index of the failing work item.
        item: usize,
        /// How many attempts were made.
        attempts: u32,
        /// The last attempt's failure (its rendered panic payload).
        message: String,
    },
    /// A checkpoint could not be saved or no usable snapshot was found.
    Checkpoint {
        /// The checkpoint directory or file involved.
        path: String,
        /// What went wrong.
        message: String,
    },
    /// The run was deliberately interrupted (e.g. by a kill-after-save
    /// test hook) before completing.
    Interrupted {
        /// Where the run stopped.
        message: String,
    },
    /// The live sprint-control service failed outside a request: the
    /// listener could not bind, the decision engine thread died, or a
    /// drain/shutdown sequence went wrong.
    Service {
        /// What went wrong.
        message: String,
    },
}

impl SimError {
    /// A [`SimError::Config`] from any displayable message.
    pub fn config(message: impl Into<String>) -> SimError {
        SimError::Config {
            message: message.into(),
        }
    }

    /// A [`SimError::Faults`] from any displayable message.
    pub fn faults(message: impl Into<String>) -> SimError {
        SimError::Faults {
            message: message.into(),
        }
    }

    /// A [`SimError::Io`] carrying the offending path.
    pub fn io(path: impl Into<String>, message: impl Into<String>) -> SimError {
        SimError::Io {
            path: path.into(),
            message: message.into(),
        }
    }

    /// A [`SimError::Checkpoint`] carrying the offending path.
    pub fn checkpoint(path: impl Into<String>, message: impl Into<String>) -> SimError {
        SimError::Checkpoint {
            path: path.into(),
            message: message.into(),
        }
    }

    /// A [`SimError::Service`] from any displayable message.
    pub fn service(message: impl Into<String>) -> SimError {
        SimError::Service {
            message: message.into(),
        }
    }

    /// The coarse failure class (and thereby the exit code).
    #[must_use]
    pub fn class(&self) -> SimErrorClass {
        match self {
            SimError::Config { .. } | SimError::Faults { .. } => SimErrorClass::Config,
            SimError::Io { .. } => SimErrorClass::Io,
            SimError::Unit(_) | SimError::Breaker(_) | SimError::Trace(_) | SimError::Table(_) => {
                SimErrorClass::Physics
            }
            SimError::Sweep { .. } | SimError::Checkpoint { .. } | SimError::Interrupted { .. } => {
                SimErrorClass::Harness
            }
            SimError::Service { .. } => SimErrorClass::Service,
        }
    }

    /// The process exit code for this error.
    #[must_use]
    pub fn exit_code(&self) -> u8 {
        self.class().exit_code()
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Config { message } => write!(f, "config error: {message}"),
            SimError::Faults { message } => write!(f, "fault schedule error: {message}"),
            SimError::Io { path, message } => write!(f, "io error on {path}: {message}"),
            SimError::Unit(e) => write!(f, "unit error: {e}"),
            SimError::Breaker(e) => write!(f, "breaker error: {e}"),
            SimError::Trace(e) => write!(f, "trace error: {e}"),
            SimError::Table(e) => write!(f, "table error: {e}"),
            SimError::Sweep {
                item,
                attempts,
                message,
            } => write!(
                f,
                "sweep item {item} failed after {attempts} attempt(s): {message}"
            ),
            SimError::Checkpoint { path, message } => {
                write!(f, "checkpoint error at {path}: {message}")
            }
            SimError::Interrupted { message } => write!(f, "run interrupted: {message}"),
            SimError::Service { message } => write!(f, "service error: {message}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<UnitError> for SimError {
    fn from(e: UnitError) -> SimError {
        SimError::Unit(e)
    }
}

impl From<BreakerError> for SimError {
    fn from(e: BreakerError) -> SimError {
        SimError::Breaker(e)
    }
}

impl From<TraceError> for SimError {
    fn from(e: TraceError) -> SimError {
        SimError::Trace(e)
    }
}

impl From<TableError> for SimError {
    fn from(e: TableError) -> SimError {
        SimError::Table(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_map_to_distinct_exit_codes() {
        let cases: Vec<(SimError, u8)> = vec![
            (SimError::config("bad grid"), 3),
            (SimError::faults("window ends before it starts"), 3),
            (SimError::io("cfg.json", "no such file"), 4),
            (SimError::from(UnitError::NotFinite), 5),
            (SimError::from(TraceError::Empty), 5),
            (SimError::from(TableError::BadAxis), 5),
            (
                SimError::Sweep {
                    item: 17,
                    attempts: 3,
                    message: "boom".into(),
                },
                6,
            ),
            (
                SimError::checkpoint("run/snap-000001.json", "bad checksum"),
                6,
            ),
            (SimError::service("address already in use"), 7),
        ];
        let mut seen = std::collections::BTreeSet::new();
        for (err, code) in cases {
            assert_eq!(err.exit_code(), code, "{err}");
            seen.insert(err.class().exit_code());
        }
        assert_eq!(seen.len(), 5, "all five classes exercised");
    }

    #[test]
    fn display_carries_context() {
        let err = SimError::Sweep {
            item: 17,
            attempts: 2,
            message: "boom".into(),
        };
        let text = err.to_string();
        assert!(text.contains("item 17") && text.contains("boom"), "{text}");
        let err = SimError::io("missing.json", "not found");
        assert!(err.to_string().contains("missing.json"));
    }
}
