//! The workspace-wide error type.
//!
//! Every front end (the CLI, the campaign engine, experiment drivers) used
//! to invent its own error enum and its own exit-code mapping;
//! [`NonFifoError`] unifies them. The exit-code contract itself
//! (0 = certificate/success, 2 = counterexample/violation, 3 = truncated or
//! stalled, 4 = differential mismatch, 5 = convergence not reached within
//! bound, 1 = everything operational) is applied in exactly one place,
//! `crates/cli/src/main.rs`.

use crate::SimError;
use nonfifo_channel::{DisciplineError, PlanError};
use std::error::Error;
use std::fmt;

/// Any failure a `nonfifo` front end can surface.
#[derive(Debug)]
pub enum NonFifoError {
    /// The caller asked for something malformed (bad flag, unknown name,
    /// out-of-range parameter).
    Usage(String),
    /// A file could not be read or written, or what it holds is malformed
    /// (a cache line that does not decode).
    Io {
        /// The path involved.
        path: String,
        /// The underlying OS error, rendered.
        message: String,
    },
    /// A fault-plan or campaign-plan file failed to parse.
    Plan(PlanError),
    /// A simulation run failed (stall or specification violation).
    Sim(SimError),
    /// An exploration found a violating schedule at the given depth.
    Counterexample {
        /// Depth at which the violation was found.
        depth: usize,
    },
    /// An exploration hit its state budget before reaching a verdict.
    Truncated {
        /// States visited before giving up.
        states: u64,
    },
    /// Two explorers disagreed on the same state space.
    DifferentialMismatch,
    /// A campaign finished with failing runs. Violations dominate stalls
    /// and panics in the exit-code contract (2 beats 3), mirroring the
    /// single-run rules: a run that panicked reached no verdict.
    CampaignFailed {
        /// Runs that ended in a specification violation.
        violations: u64,
        /// Runs that stalled out of their step budget.
        stalls: u64,
        /// Runs that panicked.
        panicked: u64,
    },
    /// A stabilization certification failed: some corrupted starts never
    /// reached — and stayed in — legal behavior within the bounded prefix.
    /// Distinct from a plain safety violation: a clean-start protocol that
    /// misbehaves earns exit 2, a protocol that fails to *recover* earns
    /// exit 5.
    ConvergenceFailed {
        /// Corrupted starts whose executions kept violating past the bound.
        diverged: u64,
        /// Corrupted starts that stalled before finishing the workload.
        stalled: u64,
        /// Total corrupted starts examined.
        seeds: u64,
    },
}

impl fmt::Display for NonFifoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NonFifoError::Usage(msg) => write!(f, "{msg}"),
            NonFifoError::Io { path, message } => write!(f, "{path}: {message}"),
            NonFifoError::Plan(e) => write!(f, "{e}"),
            NonFifoError::Sim(e) => write!(f, "{e}"),
            NonFifoError::Counterexample { depth } => {
                write!(f, "counterexample found at depth {depth}")
            }
            NonFifoError::Truncated { states } => {
                write!(f, "exploration truncated after {states} states")
            }
            NonFifoError::DifferentialMismatch => {
                write!(f, "differential exploration mismatch")
            }
            NonFifoError::CampaignFailed {
                violations,
                stalls,
                panicked,
            } => {
                write!(
                    f,
                    "campaign failed: {violations} violation(s), {stalls} stall(s)"
                )?;
                if *panicked > 0 {
                    write!(f, ", {panicked} panicked")?;
                }
                Ok(())
            }
            NonFifoError::ConvergenceFailed {
                diverged,
                stalled,
                seeds,
            } => {
                write!(
                    f,
                    "convergence not reached within bound: {diverged} diverged, \
                     {stalled} stalled of {seeds} corrupted start(s)"
                )
            }
        }
    }
}

impl Error for NonFifoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NonFifoError::Plan(e) => Some(e),
            NonFifoError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for NonFifoError {
    fn from(e: SimError) -> Self {
        NonFifoError::Sim(e)
    }
}

impl From<PlanError> for NonFifoError {
    fn from(e: PlanError) -> Self {
        NonFifoError::Plan(e)
    }
}

impl From<DisciplineError> for NonFifoError {
    fn from(e: DisciplineError) -> Self {
        NonFifoError::Usage(e.0)
    }
}

impl NonFifoError {
    /// Wraps an OS error with the path it struck.
    pub fn io(path: impl Into<String>, err: &std::io::Error) -> Self {
        NonFifoError::Io {
            path: path.into(),
            message: err.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonfifo_channel::FaultPlan;

    #[test]
    fn displays_are_informative() {
        let plan_err = FaultPlan::parse("dup").unwrap_err();
        let cases: Vec<(NonFifoError, &str)> = vec![
            (NonFifoError::Usage("bad --q".into()), "bad --q"),
            (
                NonFifoError::Io {
                    path: "x.plan".into(),
                    message: "not found".into(),
                },
                "x.plan",
            ),
            (NonFifoError::Plan(plan_err), "dup"),
            (NonFifoError::Counterexample { depth: 3 }, "depth 3"),
            (NonFifoError::Truncated { states: 10 }, "10 states"),
            (NonFifoError::DifferentialMismatch, "mismatch"),
            (
                NonFifoError::CampaignFailed {
                    violations: 2,
                    stalls: 1,
                    panicked: 0,
                },
                "2 violation(s), 1 stall(s)",
            ),
            (
                NonFifoError::CampaignFailed {
                    violations: 0,
                    stalls: 0,
                    panicked: 1,
                },
                "0 stall(s), 1 panicked",
            ),
            (
                NonFifoError::ConvergenceFailed {
                    diverged: 3,
                    stalled: 1,
                    seeds: 100,
                },
                "3 diverged",
            ),
        ];
        for (err, needle) in cases {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn sources_chain() {
        let err: NonFifoError = FaultPlan::parse("dup").unwrap_err().into();
        assert!(err.source().is_some());
        assert!(NonFifoError::DifferentialMismatch.source().is_none());
    }
}
