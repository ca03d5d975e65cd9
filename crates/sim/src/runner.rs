//! The simulation driver: warmup, measurement, result collection and
//! telemetry (wall clock, interval time-series, scope profile).

use std::time::Instant;

use llbpx::LlbpStats;
use tage::bimodal::Bimodal;
use tage::PredictInput;
use telemetry::{IntervalRecorder, IntervalSample, IntervalSnapshot, RunRecord, ScopeTotals};
use traces::BranchStream;
use workloads::{ServerWorkload, WorkloadSpec};

use crate::env::Knob;
use crate::error::{JobError, JobErrorKind, SimError};
use crate::predictor::SimPredictor;

/// Outcome of one matrix cell.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum RunStatus {
    /// The run completed.
    #[default]
    Ok,
    /// The cell's worker panicked or its workload failed validation; the
    /// matrix kept going and this result is a placeholder carrying the
    /// captured message.
    Failed {
        /// The captured panic or validation message.
        error: String,
    },
    /// The cell passed its wall-clock deadline (`LLBPX_JOB_TIMEOUT`) and
    /// was stopped; the matrix kept going.
    TimedOut {
        /// When the deadline stopped it.
        error: String,
    },
}

impl RunStatus {
    /// The telemetry `status` label.
    pub fn as_str(&self) -> &'static str {
        match self {
            RunStatus::Ok => "ok",
            RunStatus::Failed { .. } => "failed",
            RunStatus::TimedOut { .. } => "timeout",
        }
    }
}

/// Where a run's branch records came from under the experiment engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TraceSource {
    /// Generated on the fly by the workload generator (the serial path and
    /// the engine's cache-overflow fallback).
    #[default]
    Streamed,
    /// Replayed from the engine's shared materialized trace.
    Materialized,
}

impl TraceSource {
    /// Telemetry label for the source.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceSource::Streamed => "streamed",
            TraceSource::Materialized => "materialized",
        }
    }
}

/// Result of one predictor × workload run.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Predictor label.
    pub name: String,
    /// Workload name.
    pub workload: String,
    /// Instructions in the measurement phase.
    pub instructions: u64,
    /// Conditional branches measured.
    pub cond_branches: u64,
    /// Final mispredictions.
    pub mispredicts: u64,
    /// Measured branches whose final prediction differed from the 1-cycle
    /// first guess (bimodal, or LLBP's pattern buffer when it provided) —
    /// the override bubbles of the overriding pipeline model (§VII-C).
    pub override_candidates: u64,
    /// Second-level statistics (hierarchical predictors only), snapshot
    /// after [`SimPredictor::finish`].
    pub llbp: Option<LlbpStats>,
    /// Wall-clock seconds of the whole run (warmup + measurement).
    ///
    /// This is per-job wall time: under the parallel experiment engine
    /// ([`crate::exec`]) runs overlap, so the sum of `wall_seconds` across
    /// runs exceeds the elapsed wall clock of the invoking binary.
    pub wall_seconds: f64,
    /// Interval time-series over the measurement phase (width from
    /// `LLBPX_INTERVAL` or an eighth of the budget).
    pub intervals: Vec<IntervalSample>,
    /// Scope profile accumulated during the run (warmup + measurement).
    pub profile: Vec<ScopeTotals>,
    /// Outcome of the cell that produced this result.
    pub status: RunStatus,
    /// Whether the run streamed its workload or replayed a shared trace.
    pub trace_source: TraceSource,
    /// Whether this result was restored from a checkpoint journal instead
    /// of simulated in this invocation.
    pub resumed: bool,
}

impl RunResult {
    /// A placeholder result for an isolated matrix cell that failed;
    /// coordinators render these as `n/a` rows.
    pub fn failed(predictor: Option<String>, workload: &str, error: String) -> RunResult {
        RunResult {
            name: predictor.unwrap_or_else(|| "(failed)".to_owned()),
            workload: workload.to_owned(),
            status: RunStatus::Failed { error },
            ..RunResult::default()
        }
    }

    /// A placeholder result for a matrix cell that errored, with the
    /// status matching the error's kind (failed / timeout); coordinators
    /// render these as `n/a` rows.
    pub fn from_job_error(err: JobError) -> RunResult {
        let JobError { workload, predictor, message: error, kind, .. } = err;
        RunResult {
            name: predictor.unwrap_or_else(|| "(failed)".to_owned()),
            workload,
            status: match kind {
                JobErrorKind::Panic => RunStatus::Failed { error },
                JobErrorKind::TimedOut => RunStatus::TimedOut { error },
            },
            ..RunResult::default()
        }
    }

    /// Whether the cell did not complete (the accuracy fields are
    /// meaningless then): it failed or timed out.
    pub fn is_failed(&self) -> bool {
        !matches!(self.status, RunStatus::Ok)
    }

    /// The captured failure message, if the cell did not complete.
    pub fn error(&self) -> Option<&str> {
        match &self.status {
            RunStatus::Ok => None,
            RunStatus::Failed { error } | RunStatus::TimedOut { error } => Some(error),
        }
    }
    /// Mispredictions per kilo-instruction.
    pub fn mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.mispredicts as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Fractional MPKI reduction relative to `base` (positive = better).
    pub fn reduction_vs(&self, base: &RunResult) -> f64 {
        if base.mpki() == 0.0 {
            0.0
        } else {
            1.0 - self.mpki() / base.mpki()
        }
    }

    /// The run as a structured telemetry record; `sim` supplies the
    /// requested protocol (warmup/measurement budgets).
    ///
    /// The bulky telemetry sections (`intervals`, `profile`) are *moved*
    /// into the record rather than cloned — after this call the result
    /// keeps its headline counters (MPKI, mispredicts, second-level stats)
    /// but its interval time-series and scope profile are empty.
    pub fn take_record(&mut self, sim: &Simulation) -> RunRecord {
        RunRecord {
            predictor: self.name.clone(),
            workload: self.workload.clone(),
            warmup_instructions: sim.warmup_instructions,
            measure_instructions: sim.measure_instructions,
            instructions: self.instructions,
            cond_branches: self.cond_branches,
            mispredicts: self.mispredicts,
            mpki: self.mpki(),
            override_candidates: self.override_candidates,
            wall_seconds: self.wall_seconds,
            counters: self.llbp.as_ref().map(LlbpStats::counters).unwrap_or_default(),
            alloc_len_histogram: self
                .llbp
                .as_ref()
                .map(|l| l.alloc_len_histogram.to_vec())
                .unwrap_or_default(),
            intervals: std::mem::take(&mut self.intervals),
            profile: std::mem::take(&mut self.profile),
            status: self.status.as_str().to_owned(),
            error: self.error().map(str::to_owned),
            trace_source: if self.is_failed() {
                String::new()
            } else {
                self.trace_source.as_str().to_owned()
            },
            resumed: self.resumed,
            extra: Vec::new(),
        }
    }
}

fn parse_instruction_count(raw: &str) -> Option<u64> {
    raw.replace('_', "").parse::<u64>().ok()
}

/// `REPRO_WARMUP` knob: warmup instruction budget.
pub static WARMUP: Knob<u64> = Knob::new(
    "REPRO_WARMUP",
    "an instruction count",
    "using the default budget",
    parse_instruction_count,
);

/// `REPRO_INSTRUCTIONS` knob: measurement instruction budget.
pub static MEASURE: Knob<u64> = Knob::new(
    "REPRO_INSTRUCTIONS",
    "an instruction count",
    "using the default budget",
    parse_instruction_count,
);

/// Records between deadline checks in the hot loop: one clock read per
/// stride keeps the overhead unmeasurable while bounding how far a cell
/// runs past its deadline to about a stride of work.
pub const HEARTBEAT_STRIDE: u32 = 1024;

/// A run stopped by its wall-clock deadline (see
/// [`Simulation::run_stream_until`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineExceeded {
    /// Instructions (warmup + measurement) simulated when the deadline
    /// was noticed.
    pub instructions: u64,
}

/// Warmup/measurement protocol, in instructions (the paper warms 100M and
/// measures 200M; scale to taste via [`Simulation::from_env`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Simulation {
    /// Instructions to run before measurement starts.
    pub warmup_instructions: u64,
    /// Instructions to measure.
    pub measure_instructions: u64,
}

impl Simulation {
    /// Reasonable laptop-scale defaults (10M + 20M instructions).
    pub fn quick() -> Self {
        Simulation { warmup_instructions: 10_000_000, measure_instructions: 20_000_000 }
    }

    /// Reads `REPRO_WARMUP` / `REPRO_INSTRUCTIONS` from the environment
    /// (instruction counts), falling back to [`Simulation::quick`]. The
    /// experiment binaries all use this, so one variable rescales every
    /// figure. A set-but-unparsable value falls back too, with a
    /// once-per-key warning on stderr (via [`crate::env::Knob`]) so a
    /// typo'd budget doesn't invisibly shrink a run.
    pub fn from_env() -> Self {
        let quick = Simulation::quick();
        Simulation {
            warmup_instructions: WARMUP.get(|| quick.warmup_instructions),
            measure_instructions: MEASURE.get(|| quick.measure_instructions),
        }
    }

    /// Runs `predictor` over the workload described by `spec`.
    ///
    /// The workload stream is regenerated from the spec's seed, so every
    /// predictor sees the identical trace.
    ///
    /// # Panics
    ///
    /// Panics if `spec` fails validation; use [`Simulation::try_run`] to
    /// handle that structurally.
    pub fn run<P: SimPredictor + ?Sized>(&self, predictor: &mut P, spec: &WorkloadSpec) -> RunResult {
        self.try_run(predictor, spec).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs `predictor` over the workload described by `spec`, reporting an
    /// invalid spec as [`SimError::InvalidSpec`] instead of panicking.
    pub fn try_run<P: SimPredictor + ?Sized>(
        &self,
        predictor: &mut P,
        spec: &WorkloadSpec,
    ) -> Result<RunResult, SimError> {
        let mut stream = ServerWorkload::try_new(spec).map_err(|reason| {
            SimError::InvalidSpec { workload: spec.name.clone(), reason }
        })?;
        Ok(self.run_stream(predictor, &mut stream, &spec.name))
    }

    /// Runs `predictor` over an arbitrary branch stream.
    pub fn run_stream<P, S>(&self, predictor: &mut P, stream: &mut S, workload: &str) -> RunResult
    where
        P: SimPredictor + ?Sized,
        S: BranchStream + ?Sized,
    {
        match self.run_stream_until(predictor, stream, workload, None) {
            Ok(result) => result,
            Err(_) => unreachable!("a run without a deadline never exceeds it"),
        }
    }

    /// [`Simulation::run_stream`] with an optional wall-clock `deadline`:
    /// every [`HEARTBEAT_STRIDE`] records the hot loop compares the clock
    /// against it and stops with [`DeadlineExceeded`] once it has passed.
    /// The check never influences simulated state, so a run that finishes
    /// in time is bit-identical to one without a deadline.
    pub fn run_stream_until<P, S>(
        &self,
        predictor: &mut P,
        stream: &mut S,
        workload: &str,
        deadline: Option<Instant>,
    ) -> Result<RunResult, DeadlineExceeded>
    where
        P: SimPredictor + ?Sized,
        S: BranchStream + ?Sized,
    {
        let started = Instant::now();
        let profile_before = telemetry::profile::snapshot();
        let mut since_check: u32 = 0;
        let mut past_deadline = || -> bool {
            since_check += 1;
            if since_check < HEARTBEAT_STRIDE {
                return false;
            }
            since_check = 0;
            deadline.is_some_and(|d| Instant::now() >= d)
        };

        // Warmup.
        let mut elapsed = 0u64;
        while elapsed < self.warmup_instructions {
            let Some(rec) = stream.next_branch() else { break };
            elapsed += rec.instructions();
            predictor.process(PredictInput::new(&rec));
            if past_deadline() {
                return Err(DeadlineExceeded { instructions: elapsed });
            }
        }
        // Second-level counters are cumulative; snapshot them so the
        // result reports the measurement phase only.
        let warm_stats = predictor.observe().llbp.cloned();

        // Measurement, with the bimodal shadow for the overriding model.
        let mut shadow = Bimodal::new(13);
        let mut recorder = IntervalRecorder::new(telemetry::record::interval_width(
            self.measure_instructions,
        ));
        let mut result = RunResult {
            name: predictor.name(),
            workload: workload.to_owned(),
            ..RunResult::default()
        };
        while result.instructions < self.measure_instructions {
            let Some(rec) = stream.next_branch() else { break };
            result.instructions += rec.instructions();
            let update = predictor.process(PredictInput::new(&rec));
            if let Some(pred) = update.pred {
                result.cond_branches += 1;
                if pred != rec.taken {
                    result.mispredicts += 1;
                }
                // PB-provided predictions are first-cycle and never bubble;
                // the flag rides in the `Update` so no second (virtual)
                // predictor call is needed per branch.
                if pred != shadow.predict(rec.pc) && !update.first_cycle {
                    result.override_candidates += 1;
                }
                shadow.update(rec.pc, rec.taken);
            }
            // Snapshots are only materialized at interval boundaries; the
            // recorder ignores observations between them, so skipping the
            // per-branch snapshot yields identical samples.
            if result.instructions >= recorder.next_boundary() {
                recorder.observe(snapshot_counters(&result, predictor, warm_stats.as_ref()));
            }
            if past_deadline() {
                return Err(DeadlineExceeded { instructions: elapsed + result.instructions });
            }
        }
        predictor.finish();
        // Invariants are cumulative-state properties; check them before the
        // warmup delta is taken (a no-op in release builds).
        if let Some(end) = predictor.observe().llbp {
            end.validate();
        }
        result.intervals =
            recorder.finish(snapshot_counters(&result, predictor, warm_stats.as_ref()));
        result.llbp = predictor.observe().llbp.map(|end| match &warm_stats {
            Some(start) => end.delta_since(start),
            None => end.clone(),
        });
        result.profile = telemetry::profile::since(&profile_before);
        result.wall_seconds = started.elapsed().as_secs_f64();
        Ok(result)
    }
}

/// Cumulative measurement-phase counters at this moment, as an interval
/// observation. Second-level counters are rebased to the warmup snapshot so
/// the time-series is measurement-relative like everything else.
fn snapshot_counters<P: SimPredictor + ?Sized>(
    result: &RunResult,
    predictor: &P,
    warm: Option<&LlbpStats>,
) -> IntervalSnapshot {
    let mut snap = IntervalSnapshot {
        instructions: result.instructions,
        cond_branches: result.cond_branches,
        mispredicts: result.mispredicts,
        ..IntervalSnapshot::default()
    };
    let obs = predictor.observe();
    if let Some(stats) = obs.llbp {
        let base = |pick: fn(&LlbpStats) -> u64| warm.map_or(0, pick);
        snap.prefetches_issued = stats.prefetches_issued - base(|s| s.prefetches_issued);
        snap.prefetch_on_time = stats.prefetch_on_time - base(|s| s.prefetch_on_time);
        snap.prefetch_late = stats.prefetch_late - base(|s| s.prefetch_late);
        snap.allocations = stats.allocations - base(|s| s.allocations);
    }
    snap.pb_occupancy = obs.pb_occupancy;
    snap
}

/// Convenience: one warmed-up run of each provided predictor over the same
/// workload, in order.
pub fn compare<'a>(
    sim: &Simulation,
    spec: &WorkloadSpec,
    predictors: impl IntoIterator<Item = &'a mut (dyn SimPredictor + 'a)>,
) -> Vec<RunResult> {
    predictors.into_iter().map(|p| sim.run(p, spec)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use llbpx::{Llbp, LlbpConfig};
    use tage::{TageScl, TslConfig};
    use traces::VecTrace;

    fn tiny_spec() -> WorkloadSpec {
        WorkloadSpec::new("tiny", 3).with_request_types(64).with_handlers(8)
    }

    fn tiny_sim() -> Simulation {
        Simulation { warmup_instructions: 100_000, measure_instructions: 200_000 }
    }

    #[test]
    fn measures_the_requested_instruction_budget() {
        let r = tiny_sim().run(&mut TageScl::new(TslConfig::kilobytes(64)), &tiny_spec());
        assert!(r.instructions >= 200_000);
        assert!(r.instructions < 220_000, "should stop promptly after the budget");
        assert!(r.cond_branches > 10_000);
        assert!(r.mpki() > 0.0);
    }

    #[test]
    fn identical_runs_are_bit_identical() {
        let a = tiny_sim().run(&mut TageScl::new(TslConfig::kilobytes(64)), &tiny_spec());
        let b = tiny_sim().run(&mut TageScl::new(TslConfig::kilobytes(64)), &tiny_spec());
        assert_eq!(a.mispredicts, b.mispredicts);
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(a.override_candidates, b.override_candidates);
    }

    #[test]
    fn llbp_results_carry_second_level_stats() {
        let r = tiny_sim().run(&mut Llbp::new(LlbpConfig::paper_baseline()), &tiny_spec());
        let stats = r.llbp.expect("LLBP stats present");
        assert!(stats.cond_branches > 0);
        assert_eq!(r.name, "LLBP");
    }

    #[test]
    fn reduction_vs_is_signed() {
        let base = RunResult {
            name: "a".into(),
            workload: "w".into(),
            instructions: 1000,
            cond_branches: 100,
            mispredicts: 10,
            ..RunResult::default()
        };
        let better = RunResult { mispredicts: 8, ..base.clone() };
        let worse = RunResult { mispredicts: 12, ..base.clone() };
        assert!(better.reduction_vs(&base) > 0.0);
        assert!(worse.reduction_vs(&base) < 0.0);
    }

    #[test]
    fn exhausted_streams_end_the_run_gracefully() {
        let sim = Simulation { warmup_instructions: 0, measure_instructions: u64::MAX };
        let mut trace = VecTrace::new(vec![
            traces::BranchRecord::cond(0x10, 0x20, true, 4),
            traces::BranchRecord::cond(0x10, 0x20, false, 4),
        ]);
        let r = sim.run_stream(&mut TageScl::new(TslConfig::kilobytes(64)), &mut trace, "t");
        assert_eq!(r.cond_branches, 2);
        assert_eq!(r.instructions, 10);
    }

    #[test]
    fn runs_collect_telemetry_sections() {
        let sim = tiny_sim();
        let r = sim.run(&mut Llbp::new(LlbpConfig::paper_baseline()), &tiny_spec());
        assert!(r.wall_seconds > 0.0);
        assert!(r.intervals.len() >= 2, "default width is an eighth of the budget");
        let total_interval_mispredicts: u64 = r.intervals.iter().map(|s| s.mispredicts).sum();
        assert_eq!(total_interval_mispredicts, r.mispredicts, "intervals partition the run");
        assert!(
            r.intervals.iter().all(|s| s.pb_occupancy.is_some()),
            "LLBP runs carry the occupancy gauge"
        );
        let named: Vec<&str> = r.profile.iter().map(|s| s.name).collect();
        for scope in ["tage::predict", "tage::update", "llbp::pattern_lookup"] {
            assert!(named.contains(&scope), "{scope} missing from {named:?}");
        }
        assert!(r.profile.iter().all(|s| s.calls > 0 && s.nanos > 0));
    }

    #[test]
    fn take_record_captures_protocol_and_counters_without_cloning_sections() {
        let sim = tiny_sim();
        let mut r = sim.run(&mut Llbp::new(LlbpConfig::paper_baseline()), &tiny_spec());
        let intervals = r.intervals.len();
        assert!(intervals >= 2);
        let record = r.take_record(&sim);
        assert_eq!(record.warmup_instructions, sim.warmup_instructions);
        assert_eq!(record.measure_instructions, sim.measure_instructions);
        assert!(!record.counters.is_empty());
        assert_eq!(record.intervals.len(), intervals);
        assert!(r.intervals.is_empty(), "sections move into the record");
        assert!(r.profile.is_empty(), "sections move into the record");
        let json = record.to_json();
        assert_eq!(
            json.get("counters").and_then(|c| c.get("cond_branches")).and_then(|v| v.as_i64()),
            Some(r.llbp.as_ref().unwrap().cond_branches as i64)
        );
        assert!((json.get("mpki").unwrap().as_f64().unwrap() - r.mpki()).abs() < 1e-12);
    }

    #[test]
    fn a_passed_deadline_stops_the_run_within_a_stride() {
        let sim = Simulation { warmup_instructions: 0, measure_instructions: u64::MAX };
        let mut stream = ServerWorkload::new(&tiny_spec());
        let exceeded = sim
            .run_stream_until(
                &mut TageScl::new(TslConfig::kilobytes(64)),
                &mut stream,
                "tiny",
                Some(Instant::now()),
            )
            .expect_err("a deadline already passed must stop the run");
        assert!(exceeded.instructions > 0, "it ran up to the first check");
        // A record covers at most 11 instructions (its gap is at most 10).
        let one_stride = u64::from(HEARTBEAT_STRIDE) * 11;
        assert!(exceeded.instructions <= one_stride, "it stopped at the first check");
    }

    /// A run that beats its deadline is bit-identical to one without.
    #[test]
    fn watched_and_unwatched_runs_are_bit_identical() {
        let sim = tiny_sim();
        let plain = sim.run(&mut TageScl::new(TslConfig::kilobytes(64)), &tiny_spec());
        let mut stream = ServerWorkload::new(&tiny_spec());
        let far = Instant::now() + std::time::Duration::from_secs(3600);
        let watched = sim
            .run_stream_until(
                &mut TageScl::new(TslConfig::kilobytes(64)),
                &mut stream,
                "tiny",
                Some(far),
            )
            .expect("the deadline is an hour away");
        assert_eq!(plain.mispredicts, watched.mispredicts);
        assert_eq!(plain.instructions, watched.instructions);
        assert_eq!(plain.intervals, watched.intervals);
    }

    #[test]
    fn statuses_map_to_labels_and_placeholders() {
        use crate::error::{JobError, JobErrorKind};
        assert_eq!(RunStatus::Ok.as_str(), "ok");
        assert_eq!(RunStatus::Failed { error: "e".into() }.as_str(), "failed");
        assert_eq!(RunStatus::TimedOut { error: "e".into() }.as_str(), "timeout");
        let err = JobError {
            kind: JobErrorKind::TimedOut,
            ..JobError::panic(1, "w", Some("LLBP".into()), None, "too slow".into())
        };
        let mut r = RunResult::from_job_error(err);
        assert!(r.is_failed());
        assert_eq!(r.status.as_str(), "timeout");
        assert_eq!(r.error(), Some("too slow"));
        let rec = r.take_record(&tiny_sim());
        assert_eq!(rec.status, "timeout");
        assert_eq!(rec.error.as_deref(), Some("too slow"));
    }

    #[test]
    fn from_env_falls_back_to_quick() {
        // Only checks the fallback path (environment mutation is unsafe in
        // multithreaded test runs).
        if std::env::var("REPRO_WARMUP").is_err() && std::env::var("REPRO_INSTRUCTIONS").is_err()
        {
            assert_eq!(Simulation::from_env(), Simulation::quick());
        }
    }
}
