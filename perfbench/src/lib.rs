//! Host-time benchmark of the LLBP-X experiment sweeps.
//!
//! Three workloads drive the entry points the fig/table binaries use, from
//! outside the program, on a fixed engine configuration. An untraced run
//! reports the end-to-end metrics (see `README.md`); a traced run wraps
//! every predictor and streamed workload in timing probes and reports the
//! per-layer metrics. Both check every cell's simulated counters.

pub mod compare;
pub mod counters;
pub mod host;
pub mod metrics;
pub mod probe;
pub mod reference;
pub mod stats;
pub mod workload;
