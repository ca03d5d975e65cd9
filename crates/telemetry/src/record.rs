//! The structured run record one simulation emits, and the sink plumbing
//! shared by every experiment binary.
//!
//! A [`RunRecord`] captures one predictor × workload run end to end:
//! protocol (warmup/measure), configuration labels, headline metrics,
//! the full always-on counter set, the interval time-series and the scope
//! profile. Experiment binaries bundle their runs into one JSON line and
//! append it to `BENCH_<name>.json` in the working directory. Those sinks
//! are local scratch (git ignores `BENCH_*.json`); the committed
//! performance records are `perfbench/records/*.jsonl`.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::interval::IntervalSample;
use crate::json::Json;
use crate::profile::ScopeTotals;

/// Schema identifier written into every emitted record line.
///
/// v2 added per-run `status` (`"ok"` / `"failed"`), `error`, `trace_cache`
/// (`"streamed"` / `"materialized"`) and `resumed`. v3 added the
/// supervision vocabulary (`"timeout"` / `"quarantined"` statuses, per-run
/// `degraded` and `attempts`, engine `supervision` / `chaos` objects,
/// timeout/quarantine/retry/degraded counts, cache `evictions` /
/// `demotions`). v4 is the first version that removes fields: of the v3
/// vocabulary it keeps only the `"timeout"` status and the
/// `timed_out_cells` count, and the record line gains
/// `job_timeout_seconds` when a deadline is set.
pub const SCHEMA: &str = "llbpx-telemetry/4";

/// The v3 schema identifier, kept for readers that accept several.
pub const SCHEMA_V3: &str = "llbpx-telemetry/3";

/// The v2 schema identifier, kept for readers that accept several.
pub const SCHEMA_V2: &str = "llbpx-telemetry/2";

/// The original schema identifier, kept for readers that accept several.
pub const SCHEMA_V1: &str = "llbpx-telemetry/1";

/// Environment variable enabling telemetry without touching a binary's
/// argument list. Values: `1`/`true` (default `BENCH_<name>.json` in the
/// working directory), a `*.json` path, or a directory.
pub const ENV_SINK: &str = "LLBPX_TELEMETRY";

/// Environment variable overriding the interval width (instructions per
/// time-series sample).
pub const ENV_INTERVAL: &str = "LLBPX_INTERVAL";

/// One predictor × workload run, fully described.
#[derive(Debug, Clone, Default)]
pub struct RunRecord {
    /// Predictor label (e.g. `"LLBP-X"`).
    pub predictor: String,
    /// Workload name (e.g. `"NodeApp"`).
    pub workload: String,
    /// Warmup instructions requested.
    pub warmup_instructions: u64,
    /// Measured instructions requested.
    pub measure_instructions: u64,
    /// Instructions actually measured.
    pub instructions: u64,
    /// Conditional branches measured.
    pub cond_branches: u64,
    /// Final mispredictions.
    pub mispredicts: u64,
    /// Mispredictions per kilo-instruction.
    pub mpki: f64,
    /// Override-bubble candidates (see the overriding pipeline model).
    pub override_candidates: u64,
    /// Wall-clock seconds the run took on the worker that executed it.
    ///
    /// Runs overlap under the parallel experiment engine, so across a
    /// record's runs these sum to more than the invocation's elapsed time;
    /// the record line's `total_wall_seconds` carries the coordinator's
    /// elapsed clock for cross-thread-count comparisons.
    pub wall_seconds: f64,
    /// Full second-level counter set, in declaration order (empty for
    /// predictors without one).
    pub counters: Vec<(&'static str, u64)>,
    /// Allocation-attempt histogram per history length (empty for
    /// predictors without one).
    pub alloc_len_histogram: Vec<u64>,
    /// Interval time-series.
    pub intervals: Vec<IntervalSample>,
    /// Scope profile accumulated during the run.
    pub profile: Vec<ScopeTotals>,
    /// Run outcome: empty or `"ok"` for a completed run, `"failed"` for an
    /// isolated matrix cell that panicked (schema v2), `"timeout"` for one
    /// that passed its deadline.
    pub status: String,
    /// Captured failure message of a failed cell (schema v2).
    pub error: Option<String>,
    /// Per-run trace attribution: `"streamed"` or `"materialized"`
    /// (schema v2; empty = not emitted, for records outside the engine).
    pub trace_source: String,
    /// Whether this run was restored from a checkpoint journal rather than
    /// simulated in this invocation (schema v2).
    pub resumed: bool,
    /// Additional fields appended by outer layers (storage bits, CPI, ...).
    pub extra: Vec<(String, Json)>,
}

impl RunRecord {
    /// The record as a JSON object.
    pub fn to_json(&self) -> Json {
        let mut counters = Json::obj();
        for &(name, value) in &self.counters {
            counters = counters.set(name, value);
        }
        let mut j = Json::obj()
            .set("predictor", self.predictor.as_str())
            .set("workload", self.workload.as_str())
            .set("warmup_instructions", self.warmup_instructions)
            .set("measure_instructions", self.measure_instructions)
            .set("instructions", self.instructions)
            .set("cond_branches", self.cond_branches)
            .set("mispredicts", self.mispredicts)
            .set("mpki", self.mpki)
            .set("override_candidates", self.override_candidates)
            .set("wall_seconds", self.wall_seconds)
            .set("counters", counters)
            .set(
                "alloc_len_histogram",
                Json::Arr(self.alloc_len_histogram.iter().map(|&v| Json::from(v)).collect()),
            )
            .set(
                "intervals",
                Json::Arr(self.intervals.iter().map(IntervalSample::to_json).collect()),
            )
            .set(
                "profile",
                Json::Arr(
                    self.profile
                        .iter()
                        .map(|s| {
                            Json::obj()
                                .set("scope", s.name)
                                .set("calls", s.calls)
                                .set("nanos", s.nanos)
                        })
                        .collect(),
                ),
            )
            .set("status", if self.status.is_empty() { "ok" } else { self.status.as_str() });
        if let Some(error) = &self.error {
            j = j.set("error", error.as_str());
        }
        if !self.trace_source.is_empty() {
            j = j.set("trace_cache", self.trace_source.as_str());
        }
        if self.resumed {
            j = j.set("resumed", true);
        }
        for (k, v) in &self.extra {
            j = j.set(k.as_str(), v.clone());
        }
        j
    }
}

/// Resolves the telemetry sink for a bench binary named `bench` from an
/// explicit `--json <path>` argument (checked first) or the
/// [`ENV_SINK`] environment variable. Returns `None` when telemetry is off.
pub fn sink_from<I: IntoIterator<Item = String>>(
    bench: &str,
    args: I,
    env: Option<&str>,
) -> Option<PathBuf> {
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        if a == "--json" {
            match args.next() {
                Some(path) => return Some(PathBuf::from(path)),
                None => panic!("--json requires a path argument"),
            }
        }
        if let Some(path) = a.strip_prefix("--json=") {
            return Some(PathBuf::from(path));
        }
    }
    let value = env?;
    let default_name = format!("BENCH_{bench}.json");
    match value {
        "" | "0" | "false" | "off" => None,
        "1" | "true" | "on" => Some(PathBuf::from(default_name)),
        path if path.ends_with(".json") => Some(PathBuf::from(path)),
        dir => Some(Path::new(dir).join(default_name)),
    }
}

/// Resolves the sink from the real process arguments and environment.
pub fn sink_from_env(bench: &str) -> Option<PathBuf> {
    let env = std::env::var(ENV_SINK).ok();
    sink_from(bench, std::env::args().skip(1), env.as_deref())
}

/// The interval width (instructions per sample): [`ENV_INTERVAL`] if set,
/// otherwise an eighth of the measurement budget (at least one instruction).
pub fn interval_width(measure_instructions: u64) -> u64 {
    std::env::var(ENV_INTERVAL)
        .ok()
        .and_then(|v| v.replace('_', "").parse::<u64>().ok())
        .filter(|&v| v > 0)
        .unwrap_or_else(|| (measure_instructions / 8).max(1))
}

/// Appends `record` as one JSON line to `path` (creating the file if
/// needed), so successive invocations build a trajectory.
pub fn append_line(path: &Path, record: &Json) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    writeln!(file, "{record}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_record_serializes_all_sections() {
        let rec = RunRecord {
            predictor: "LLBP".into(),
            workload: "NodeApp".into(),
            warmup_instructions: 10,
            measure_instructions: 20,
            instructions: 21,
            cond_branches: 5,
            mispredicts: 2,
            mpki: 95.2,
            override_candidates: 1,
            wall_seconds: 0.25,
            counters: vec![("llbp_provided", 3)],
            alloc_len_histogram: vec![0, 2],
            intervals: Vec::new(),
            profile: vec![ScopeTotals { name: "tage::predict", calls: 5, nanos: 1000 }],
            extra: vec![("cpi".into(), Json::Num(1.5))],
            ..RunRecord::default()
        };
        let j = Json::parse(&rec.to_json().to_string()).expect("round-trips");
        assert_eq!(j.get("predictor").unwrap().as_str(), Some("LLBP"));
        assert_eq!(j.get("counters").unwrap().get("llbp_provided").unwrap().as_i64(), Some(3));
        assert_eq!(j.get("profile").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(j.get("cpi").unwrap().as_f64(), Some(1.5));
        // Schema v2: an unset status reads back as "ok"; optional fields
        // stay off the line entirely.
        assert_eq!(j.get("status").unwrap().as_str(), Some("ok"));
        assert!(j.get("error").is_none());
        assert!(j.get("resumed").is_none());
    }

    #[test]
    fn failed_and_resumed_records_emit_v2_fields() {
        let rec = RunRecord {
            predictor: "LLBP".into(),
            workload: "NodeApp".into(),
            status: "failed".into(),
            error: Some("worker panicked".into()),
            trace_source: "materialized".into(),
            resumed: true,
            ..RunRecord::default()
        };
        let j = Json::parse(&rec.to_json().to_string()).expect("round-trips");
        assert_eq!(j.get("status").unwrap().as_str(), Some("failed"));
        assert_eq!(j.get("error").unwrap().as_str(), Some("worker panicked"));
        assert_eq!(j.get("trace_cache").unwrap().as_str(), Some("materialized"));
        assert_eq!(j.get("resumed").unwrap(), &Json::Bool(true));
    }

    #[test]
    fn sink_resolution_prefers_explicit_argument() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            sink_from("fig01", args(&["--json", "out.json"]), Some("1")),
            Some(PathBuf::from("out.json"))
        );
        assert_eq!(
            sink_from("fig01", args(&["--json=x.json"]), None),
            Some(PathBuf::from("x.json"))
        );
        assert_eq!(sink_from("fig01", args(&[]), None), None);
        assert_eq!(
            sink_from("fig01", args(&[]), Some("1")),
            Some(PathBuf::from("BENCH_fig01.json"))
        );
        assert_eq!(
            sink_from("fig01", args(&[]), Some("results")),
            Some(PathBuf::from("results/BENCH_fig01.json"))
        );
        assert_eq!(
            sink_from("fig01", args(&[]), Some("custom.json")),
            Some(PathBuf::from("custom.json"))
        );
        assert_eq!(sink_from("fig01", args(&[]), Some("0")), None);
    }

    #[test]
    fn append_line_builds_a_jsonl_trajectory() {
        let path = std::env::temp_dir().join(format!("telemetry-test-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        append_line(&path, &Json::obj().set("run", 1u64)).unwrap();
        append_line(&path, &Json::obj().set("run", 2u64)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(Json::parse(lines[1]).unwrap().get("run").unwrap().as_i64(), Some(2));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn interval_width_defaults_to_an_eighth() {
        // Only exercise the fallback path (environment mutation is unsafe
        // in multithreaded test runs).
        if std::env::var(ENV_INTERVAL).is_err() {
            assert_eq!(interval_width(8_000), 1_000);
            assert_eq!(interval_width(0), 1);
        }
    }
}
