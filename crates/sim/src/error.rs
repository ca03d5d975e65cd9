//! Structured errors for the simulation engine.
//!
//! The experiment engine is built to survive partial failure: a panicking
//! matrix cell becomes a [`JobError`] (captured on the worker via
//! `catch_unwind`) instead of aborting the whole matrix, and the library
//! paths that used to panic — invalid workload specs, unreadable
//! checkpoints, corrupt traces found while materializing — surface a
//! [`SimError`] instead.

use std::fmt;
use std::path::PathBuf;

use traces::TraceDefect;

/// How an isolated matrix cell failed; each kind maps to its telemetry
/// `status`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum JobErrorKind {
    /// The cell's worker panicked (in the factory or the run), or its
    /// workload failed validation.
    #[default]
    Panic,
    /// The cell passed its `LLBPX_JOB_TIMEOUT` wall-clock deadline.
    TimedOut,
}

impl JobErrorKind {
    /// The telemetry `status` value for this kind.
    pub fn status(self) -> &'static str {
        match self {
            JobErrorKind::Panic => "failed",
            JobErrorKind::TimedOut => "timeout",
        }
    }

    /// Short human label for messages.
    pub fn as_str(self) -> &'static str {
        match self {
            JobErrorKind::Panic => "failed",
            JobErrorKind::TimedOut => "timed out",
        }
    }
}

/// A failure inside one isolated matrix cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// Zero-based index of the job in its matrix.
    pub index: usize,
    /// Workload name of the cell.
    pub workload: String,
    /// Predictor label, if the factory got far enough to produce one.
    pub predictor: Option<String>,
    /// Deterministic job fingerprint (see [`crate::checkpoint`]), if the
    /// cell got far enough to compute one.
    pub fingerprint: Option<String>,
    /// The captured panic message, validation error or deadline
    /// description.
    pub message: String,
    /// How the cell failed.
    pub kind: JobErrorKind,
}

impl JobError {
    /// A panic-kind error.
    pub fn panic(
        index: usize,
        workload: &str,
        predictor: Option<String>,
        fingerprint: Option<String>,
        message: String,
    ) -> Self {
        JobError {
            index,
            workload: workload.to_owned(),
            predictor,
            fingerprint,
            message,
            kind: JobErrorKind::Panic,
        }
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "matrix cell {} ({} × {}) {}: {}",
            self.index,
            self.predictor.as_deref().unwrap_or("unbuilt predictor"),
            self.workload,
            self.kind.as_str(),
            self.message
        )
    }
}

impl std::error::Error for JobError {}

/// Errors surfaced by the simulation library's fallible paths.
#[derive(Debug, Clone)]
pub enum SimError {
    /// A workload spec failed [`workloads::WorkloadSpec::validate`].
    InvalidSpec {
        /// Workload name.
        workload: String,
        /// The validation message.
        reason: String,
    },
    /// An isolated matrix cell failed.
    Job(JobError),
    /// The checkpoint journal could not be opened or written.
    Checkpoint {
        /// Journal path.
        path: PathBuf,
        /// Underlying IO error, rendered.
        detail: String,
    },
    /// A branch stream failed validation while being materialized.
    Trace {
        /// Workload name.
        workload: String,
        /// The structural defect found.
        defect: TraceDefect,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidSpec { workload, reason } => {
                write!(f, "invalid workload spec `{workload}`: {reason}")
            }
            SimError::Job(e) => e.fmt(f),
            SimError::Checkpoint { path, detail } => {
                write!(f, "checkpoint {}: {detail}", path.display())
            }
            SimError::Trace { workload, defect } => {
                write!(f, "trace of workload `{workload}` is corrupt: {defect}")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Job(e) => Some(e),
            SimError::Trace { defect, .. } => Some(defect),
            _ => None,
        }
    }
}

impl From<JobError> for SimError {
    fn from(e: JobError) -> Self {
        SimError::Job(e)
    }
}

/// Renders a captured panic payload (from `catch_unwind`) as a message.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_errors_render_their_cell() {
        let e = JobError::panic(
            3,
            "NodeApp",
            Some("LLBP-X".into()),
            Some("deadbeef".into()),
            "boom".into(),
        );
        let s = e.to_string();
        assert!(s.contains("cell 3"), "{s}");
        assert!(s.contains("LLBP-X × NodeApp"), "{s}");
        assert!(s.contains("boom"), "{s}");
        let s = SimError::from(e).to_string();
        assert!(s.contains("boom"), "{s}");
    }

    #[test]
    fn job_error_kinds_map_to_statuses() {
        assert_eq!(JobErrorKind::Panic.status(), "failed");
        assert_eq!(JobErrorKind::TimedOut.status(), "timeout");
        let e = JobError {
            kind: JobErrorKind::TimedOut,
            ..JobError::panic(0, "w", None, None, "too slow".into())
        };
        let s = e.to_string();
        assert!(s.contains("timed out: too slow"), "{s}");
    }

    #[test]
    fn panic_messages_capture_str_and_string_payloads() {
        let caught =
            std::panic::catch_unwind(|| panic!("static message")).unwrap_err();
        assert_eq!(panic_message(caught), "static message");
        let caught =
            std::panic::catch_unwind(|| panic!("formatted {}", 42)).unwrap_err();
        assert_eq!(panic_message(caught), "formatted 42");
        let caught = std::panic::catch_unwind(|| std::panic::panic_any(7u32)).unwrap_err();
        assert!(panic_message(caught).contains("non-string"));
    }

    #[test]
    fn sim_errors_render_every_variant() {
        let invalid = SimError::InvalidSpec { workload: "w".into(), reason: "bad".into() };
        assert!(invalid.to_string().contains("invalid workload spec `w`"));
        let ckpt = SimError::Checkpoint { path: "/tmp/x".into(), detail: "denied".into() };
        assert!(ckpt.to_string().contains("/tmp/x"));
        let trace = SimError::Trace {
            workload: "w".into(),
            defect: TraceDefect::ZeroPc { at: 0 },
        };
        assert!(trace.to_string().contains("corrupt"));
    }
}
