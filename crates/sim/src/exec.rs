//! The parallel experiment engine: fans a run matrix out over worker
//! threads, shares materialized workload traces between runs, isolates
//! per-cell failures under one wall-clock deadline, and journals completed
//! cells to a checkpoint.
//!
//! Every figure/table binary replays the paper's protocol as a *matrix* of
//! `(predictor, workload)` cells. The cells are embarrassingly parallel and
//! deterministic by construction (the workload generator is seeded, the
//! runner is single-threaded per cell), so this module provides:
//!
//! * [`run_jobs`] — a deterministic-order parallel map: jobs are claimed in
//!   index order by `LLBPX_THREADS` scoped workers and the results come
//!   back in job order, bit-identical to running them serially;
//! * a lazily-filled shared trace cache ([`crate::cache::TraceCache`],
//!   capped by `LLBPX_TRACE_CACHE_MB`) so every predictor on a workload
//!   replays identical records read-only instead of re-synthesizing them;
//! * [`run_matrix`] — the two combined.
//!
//! Robustness, on top of that:
//!
//! * **Job isolation** — each matrix cell runs under `catch_unwind`, so a
//!   panicking cell becomes an `Err(`[`JobError`]`)` in the report instead
//!   of aborting the whole sweep; every other cell still completes.
//!   `LLBPX_FAULT_CELL=<index>[:panic|slow]` deliberately breaks one
//!   cell, to exercise these paths end-to-end.
//! * **Deadline** — with `LLBPX_JOB_TIMEOUT` set, each cell gets a
//!   wall-clock deadline that the runner's hot loop compares every
//!   [`crate::runner::HEARTBEAT_STRIDE`] records; a cell past it stops
//!   and reports a structured timeout error instead of wedging the sweep.
//!   Runs are deterministic, so a failed cell is not retried: it would
//!   fail the same way again.
//! * **Checkpoint/resume** — with `LLBPX_CHECKPOINT=<path>` set, every
//!   completed cell is journaled (keyed by a deterministic fingerprint of
//!   predictor config, workload spec and budgets); re-running after a
//!   crash or kill restores journaled cells bit-identically and simulates
//!   only the rest. See [`crate::checkpoint`].
//!
//! Telemetry stays correct under concurrency because every per-run source
//! is job-local: the scope profiler is thread-local and snapshotted around
//! each run *on the worker that runs it*, the interval recorder lives
//! inside [`Simulation::run_stream`], and each job's sections travel back
//! to the coordinator inside its [`RunResult`]. `wall_seconds` is per-job
//! wall time, so summing it across overlapping runs exceeds the binary's
//! elapsed time — coordinators report elapsed time separately.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use traces::{BranchRecord, SharedTrace};
use workloads::{ServerWorkload, WorkloadSpec};

pub use crate::cache::{TraceCacheStats, TraceLease};
use crate::cache::TraceCache;
use crate::checkpoint::{self, Checkpoint};
use crate::env::Knob;
use crate::error::{panic_message, JobError, JobErrorKind, SimError};
use crate::predictor::SimPredictor;
use crate::runner::{RunResult, Simulation, TraceSource};

/// Environment variable selecting the worker count (default: available
/// parallelism).
pub const ENV_THREADS: &str = "LLBPX_THREADS";

/// Environment variable capping the shared trace cache, in MiB
/// (default [`DEFAULT_TRACE_CACHE_MB`]; `0` disables materialization).
pub const ENV_TRACE_CACHE_MB: &str = "LLBPX_TRACE_CACHE_MB";

/// Environment variable naming one zero-based matrix cell to deliberately
/// break, for exercising the failure-isolation and deadline paths
/// end-to-end (tests, `scripts/verify.sh`). `<index>` alone panics the
/// cell; `<index>:panic|slow` selects the failure mode — `slow` hangs
/// until the `LLBPX_JOB_TIMEOUT` deadline ends it (and panics instead when
/// no deadline is set, so it cannot hang the sweep).
pub const ENV_FAULT_CELL: &str = "LLBPX_FAULT_CELL";

/// Environment variable: wall-clock deadline per matrix cell, in seconds
/// (fractional allowed; `0` disables the deadline).
pub const ENV_JOB_TIMEOUT: &str = "LLBPX_JOB_TIMEOUT";

/// Default trace-cache cap: 3 GiB covers the 14-preset matrix at the
/// laptop-scale default budgets; paper-scale budgets overflow it and
/// stream instead.
pub const DEFAULT_TRACE_CACHE_MB: u64 = 3072;

/// How an injected fault breaks its cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// Panic inside the run.
    Panic,
    /// Hang until the cell's deadline passes.
    Slow,
}

/// One deliberately-broken matrix cell, from [`ENV_FAULT_CELL`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Zero-based matrix cell to break.
    pub cell: usize,
    /// How to break it.
    pub kind: InjectedFault,
}

fn parse_threads(raw: &str) -> Option<usize> {
    raw.parse::<usize>().ok().filter(|&n| n >= 1)
}

fn parse_cache_mb(raw: &str) -> Option<u64> {
    raw.parse::<u64>().ok()
}

fn parse_fault(raw: &str) -> Option<Option<FaultSpec>> {
    let (cell, kind) = match raw.split_once(':') {
        Some((cell, kind)) => (cell, kind),
        None => (raw, "panic"),
    };
    let cell = cell.trim().parse::<usize>().ok()?;
    let kind = match kind.trim() {
        "panic" => InjectedFault::Panic,
        "slow" => InjectedFault::Slow,
        _ => return None,
    };
    Some(Some(FaultSpec { cell, kind }))
}

fn parse_timeout(raw: &str) -> Option<Option<Duration>> {
    let secs: f64 = raw.parse().ok()?;
    if !secs.is_finite() || secs < 0.0 {
        return None;
    }
    Some((secs > 0.0).then(|| Duration::from_secs_f64(secs)))
}

/// [`ENV_THREADS`] knob.
pub static THREADS: Knob<usize> = Knob::new(
    ENV_THREADS,
    "a positive thread count",
    "using available parallelism",
    parse_threads,
);

/// [`ENV_TRACE_CACHE_MB`] knob.
pub static TRACE_CACHE_MB: Knob<u64> = Knob::new(
    ENV_TRACE_CACHE_MB,
    "a size in MiB",
    "using the default cap",
    parse_cache_mb,
);

/// [`ENV_FAULT_CELL`] knob.
pub static FAULT_CELL: Knob<Option<FaultSpec>> = Knob::new(
    ENV_FAULT_CELL,
    "a zero-based cell index with an optional :panic|:slow kind",
    "ignoring it",
    parse_fault,
);

/// [`ENV_JOB_TIMEOUT`] knob.
pub static JOB_TIMEOUT: Knob<Option<Duration>> = Knob::new(
    ENV_JOB_TIMEOUT,
    "a non-negative number of seconds (0 disables the deadline)",
    "leaving the deadline off",
    parse_timeout,
);

/// The worker count: `LLBPX_THREADS` if set to a positive integer,
/// otherwise the machine's available parallelism. An unparsable value
/// warns once on stderr and uses the default, like the `REPRO_*` budgets.
pub fn threads_from_env() -> usize {
    THREADS.get(default_threads)
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The trace-cache cap in bytes, from [`ENV_TRACE_CACHE_MB`].
pub fn trace_cache_bytes_from_env() -> u64 {
    TRACE_CACHE_MB.get(|| DEFAULT_TRACE_CACHE_MB).saturating_mul(1024 * 1024)
}

/// The deliberately-broken cell from [`ENV_FAULT_CELL`], if any.
pub fn fault_from_env() -> Option<FaultSpec> {
    FAULT_CELL.get(|| None)
}

/// The per-cell deadline from [`ENV_JOB_TIMEOUT`], if any.
pub fn job_timeout_from_env() -> Option<Duration> {
    JOB_TIMEOUT.get(|| None)
}

/// A boxed unit of work for [`run_jobs`].
pub type BoxedJob<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

/// Runs `jobs` across [`threads_from_env`] workers; results return in job
/// order.
pub fn run_jobs<T: Send>(jobs: Vec<BoxedJob<'_, T>>) -> Vec<T> {
    run_jobs_with(threads_from_env(), jobs)
}

/// Runs `jobs` across at most `threads` scoped workers and returns the
/// results in job order.
///
/// Workers claim jobs in index order from a shared counter, each job runs
/// entirely on one worker thread, and its result is stored into the slot
/// of its index — so the output order (and, for deterministic jobs, every
/// output bit) is independent of the thread count. `threads <= 1` runs the
/// jobs serially on the calling thread with no spawning at all.
///
/// A panicking job propagates (aborting the scope); for isolated matrix
/// cells use [`run_matrix`], which wraps each cell in `catch_unwind`.
pub fn run_jobs_with<T: Send>(threads: usize, jobs: Vec<BoxedJob<'_, T>>) -> Vec<T> {
    let n = jobs.len();
    let threads = threads.max(1).min(n);
    if threads <= 1 {
        return jobs.into_iter().map(|job| job()).collect();
    }

    let queue: Vec<Mutex<Option<BoxedJob<'_, T>>>> =
        jobs.into_iter().map(|job| Mutex::new(Some(job))).collect();
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let claimed =
                    queue[i].lock().unwrap_or_else(PoisonError::into_inner).take();
                let Some(job) = claimed else {
                    unreachable!("each job is claimed exactly once");
                };
                let result = job();
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| match slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
            Some(result) => result,
            None => unreachable!("scope joined every worker"),
        })
        .collect()
}

/// Materializes the branch stream of `spec` into shared read-only storage
/// covering at least `instructions` of simulation, validating every record
/// structurally on the way in.
///
/// Returns `Ok(None)` when materializing would exceed `cap_bytes` or the
/// stream ends early (callers fall back to per-job streaming), and an
/// error when the spec is invalid or the generator emits a structurally
/// corrupt record — a corrupt shared trace would poison every cell that
/// replays it, so it is rejected before any cell runs.
///
/// The trace is generated past the requested budget by twice the largest
/// record seen, which provably covers the runner's boundary overshoot (the
/// warmup and measurement loops each run their crossing record to
/// completion), so replaying the result is bit-identical to streaming the
/// generator — same records, same order, same stopping point.
pub fn try_materialize(
    spec: &WorkloadSpec,
    instructions: u64,
    cap_bytes: u64,
) -> Result<Option<Arc<Vec<BranchRecord>>>, SimError> {
    let mut stream = ServerWorkload::try_new(spec)
        .map_err(|reason| SimError::InvalidSpec { workload: spec.name.clone(), reason })?;
    let hint = crate::cache::estimated_records(spec, instructions);
    crate::cache::materialize_stream(&spec.name, &mut stream, instructions, cap_bytes, hint)
}

/// [`try_materialize`], panicking on invalid specs or corrupt streams.
pub fn materialize(
    spec: &WorkloadSpec,
    instructions: u64,
    cap_bytes: u64,
) -> Option<Arc<Vec<BranchRecord>>> {
    try_materialize(spec, instructions, cap_bytes).unwrap_or_else(|e| panic!("{e}"))
}

/// One cell of a run matrix: a predictor factory plus the workload it runs
/// on. The factory executes on the worker thread that claims the job, so
/// predictors never cross threads.
pub struct MatrixJob<'a> {
    /// Builds the predictor (and may run arbitrary setup, e.g. oracle
    /// training) on the worker thread.
    pub factory: Box<dyn Fn() -> Box<dyn SimPredictor> + Send + 'a>,
    /// The workload the predictor runs on. Jobs with equal specs share one
    /// materialized trace.
    pub spec: WorkloadSpec,
}

impl<'a> MatrixJob<'a> {
    /// Creates a job from a factory and the workload spec it runs on.
    pub fn new(
        factory: impl Fn() -> Box<dyn SimPredictor> + Send + 'a,
        spec: &WorkloadSpec,
    ) -> Self {
        MatrixJob { factory: Box::new(factory), spec: spec.clone() }
    }
}

/// One finished matrix cell.
#[derive(Debug, Clone)]
pub struct MatrixOutput {
    /// The run itself (headline metrics plus telemetry sections).
    pub result: RunResult,
    /// Storage budget of the predictor that ran, for the telemetry record.
    pub storage_bits: u64,
}

/// A completed run matrix: per-cell outcomes in job order plus engine
/// bookkeeping for the coordinator's telemetry record.
pub struct MatrixReport {
    /// Per-job outcomes, in the order the jobs were submitted. A cell that
    /// failed or timed out is an `Err` carrying the structured error;
    /// every other cell completed normally.
    pub outputs: Vec<Result<MatrixOutput, JobError>>,
    /// Worker threads actually used.
    pub threads: usize,
    /// Shared-trace cache behavior.
    pub cache: TraceCacheStats,
    /// The per-cell deadline the matrix ran under.
    pub job_timeout: Option<Duration>,
}

impl MatrixReport {
    /// The failed cells (any kind), in job order.
    pub fn failures(&self) -> impl Iterator<Item = &JobError> {
        self.outputs.iter().filter_map(|o| o.as_ref().err())
    }

    /// How many cells failed (panicked or timed out).
    pub fn failed_cells(&self) -> usize {
        self.failures().count()
    }

    /// How many cells passed their deadline.
    pub fn timed_out_cells(&self) -> usize {
        self.failures().filter(|e| e.kind == JobErrorKind::TimedOut).count()
    }

    /// How many cells were restored from the checkpoint journal instead of
    /// simulated in this invocation.
    pub fn resumed_cells(&self) -> usize {
        self.outputs
            .iter()
            .filter(|o| matches!(o, Ok(out) if out.result.resumed))
            .count()
    }
}

/// Everything that shapes how a matrix executes, beyond the jobs
/// themselves. [`EngineOptions::from_env`] reads the whole knob set;
/// [`EngineOptions::basic`] is the bare engine (no checkpoint, no faults,
/// no deadline) for tests and library callers.
pub struct EngineOptions {
    /// Worker threads.
    pub threads: usize,
    /// Shared trace cache cap, in bytes.
    pub cap_bytes: u64,
    /// Checkpoint journal, if any.
    pub checkpoint: Option<Arc<Checkpoint>>,
    /// One deliberately-broken cell, if any ([`ENV_FAULT_CELL`]).
    pub fault: Option<FaultSpec>,
    /// Wall-clock deadline per cell, if any ([`ENV_JOB_TIMEOUT`]).
    pub job_timeout: Option<Duration>,
}

impl EngineOptions {
    /// The bare engine: explicit threads and cache cap, everything else
    /// off.
    pub fn basic(threads: usize, cap_bytes: u64) -> Self {
        EngineOptions {
            threads,
            cap_bytes,
            checkpoint: None,
            fault: None,
            job_timeout: None,
        }
    }

    /// The full environment-driven configuration: `LLBPX_THREADS`,
    /// `LLBPX_TRACE_CACHE_MB`, `LLBPX_CHECKPOINT`, `LLBPX_FAULT_CELL` and
    /// `LLBPX_JOB_TIMEOUT`.
    pub fn from_env() -> Self {
        EngineOptions {
            threads: threads_from_env(),
            cap_bytes: trace_cache_bytes_from_env(),
            checkpoint: Checkpoint::from_env().map(Arc::new),
            fault: fault_from_env(),
            job_timeout: job_timeout_from_env(),
        }
    }
}

/// Runs a matrix under the full environment-driven configuration
/// ([`EngineOptions::from_env`]). See [`run_matrix_opts`].
pub fn run_matrix(sim: &Simulation, jobs: Vec<MatrixJob<'_>>) -> MatrixReport {
    run_matrix_opts(sim, jobs, EngineOptions::from_env())
}

/// Runs a matrix with explicit thread count and cache cap, no checkpoint,
/// no fault injection and no deadline. See [`run_matrix_opts`].
pub fn run_matrix_with(
    sim: &Simulation,
    jobs: Vec<MatrixJob<'_>>,
    threads: usize,
    cap_bytes: u64,
) -> MatrixReport {
    run_matrix_opts(sim, jobs, EngineOptions::basic(threads, cap_bytes))
}

/// Shared per-matrix context the cell runner needs.
struct MatrixContext<'e> {
    sim: Simulation,
    checkpoint: Option<&'e Checkpoint>,
    fault: Option<FaultSpec>,
    job_timeout: Option<Duration>,
    cache: &'e TraceCache,
}

/// One cell: build the predictor, consult the journal, claim the trace,
/// run under `catch_unwind` and the deadline, journal the completion.
fn run_cell(
    ctx: &MatrixContext<'_>,
    index: usize,
    factory: &(dyn Fn() -> Box<dyn SimPredictor> + Send),
    spec: &WorkloadSpec,
) -> Result<MatrixOutput, JobError> {
    let mut predictor = match std::panic::catch_unwind(AssertUnwindSafe(factory)) {
        Ok(predictor) => predictor,
        Err(payload) => {
            return Err(JobError::panic(index, &spec.name, None, None, panic_message(payload)))
        }
    };
    let name = predictor.name();
    let storage_bits = predictor.storage_bits();
    let fingerprint =
        checkpoint::job_fingerprint(index, &name, storage_bits, spec, &ctx.sim);
    if let Some(cell) = ctx.checkpoint.and_then(|cp| cp.lookup(&fingerprint)) {
        return Ok(MatrixOutput { result: cell.result, storage_bits: cell.storage_bits });
    }

    let deadline = ctx.job_timeout.map(|timeout| Instant::now() + timeout);
    let timed_out = |instructions: u64| {
        let timeout = ctx.job_timeout.unwrap_or_default().as_secs_f64();
        let message = format!(
            "exceeded the {timeout:.3}s wall-clock deadline ({ENV_JOB_TIMEOUT}) \
             after {instructions} simulated instructions"
        );
        (JobErrorKind::TimedOut, message)
    };
    let failed = |e: SimError| (JobErrorKind::Panic, e.to_string());
    let run = std::panic::catch_unwind(AssertUnwindSafe(
        || -> Result<RunResult, (JobErrorKind, String)> {
            if let Some(fault) = ctx.fault.filter(|f| f.cell == index) {
                match (fault.kind, deadline) {
                    (InjectedFault::Slow, Some(deadline)) => {
                        std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
                        return Err(timed_out(0));
                    }
                    // A slow cell without a deadline to end it panics
                    // instead of hanging the sweep.
                    _ => panic!(
                        "deliberate fault injected into cell {index} (see {ENV_FAULT_CELL})"
                    ),
                }
            }
            let (run, source) = match ctx.cache.acquire(spec).map_err(failed)? {
                TraceLease::Materialized(records) => {
                    let mut replay = SharedTrace::new(records);
                    let run = ctx.sim.run_stream_until(
                        predictor.as_mut(),
                        &mut replay,
                        &spec.name,
                        deadline,
                    );
                    (run, TraceSource::Materialized)
                }
                TraceLease::Streamed => {
                    let mut stream = ServerWorkload::try_new(spec)
                        .map_err(|reason| failed(SimError::InvalidSpec {
                            workload: spec.name.clone(),
                            reason,
                        }))?;
                    let run = ctx.sim.run_stream_until(
                        predictor.as_mut(),
                        &mut stream,
                        &spec.name,
                        deadline,
                    );
                    (run, TraceSource::Streamed)
                }
            };
            let mut result = run.map_err(|exceeded| timed_out(exceeded.instructions))?;
            result.trace_source = source;
            Ok(result)
        },
    ));
    let (kind, message) = match run {
        Ok(Ok(result)) => {
            if let Some(cp) = ctx.checkpoint {
                cp.record(&fingerprint, &result, storage_bits);
            }
            return Ok(MatrixOutput { result, storage_bits });
        }
        Ok(Err(failure)) => failure,
        Err(payload) => (JobErrorKind::Panic, panic_message(payload)),
    };
    Err(JobError {
        index,
        workload: spec.name.clone(),
        predictor: Some(name),
        fingerprint: Some(fingerprint),
        message,
        kind,
    })
}

/// Runs every `(predictor factory, workload)` job under `sim`, fanning out
/// over at most `opts.threads` workers, and returns the outcomes in job
/// order — completed cells bit-identical to running the same cells
/// serially via [`Simulation::run`].
///
/// Each distinct spec shared by two or more jobs is materialized lazily
/// into the shared trace cache when it fits what is left of
/// `opts.cap_bytes` (see [`crate::cache::TraceCache`]) and replayed
/// read-only by every job on that workload; every other spec streams from
/// the generator exactly as the serial path does. Both paths produce the
/// same records in the same order, so accuracy never depends on which one
/// ran — the one that did is attributed per run in
/// [`RunResult::trace_source`].
///
/// Each cell runs under `catch_unwind` and, when `opts.job_timeout` is
/// set, a wall-clock deadline; a failure of either kind yields
/// `Err(JobError)` for that cell and every other cell still completes.
/// With a checkpoint, completed cells are journaled under their
/// deterministic fingerprint and cells already in the journal are
/// restored (marked `resumed`) instead of simulated.
pub fn run_matrix_opts(
    sim: &Simulation,
    jobs: Vec<MatrixJob<'_>>,
    opts: EngineOptions,
) -> MatrixReport {
    let budget = sim.warmup_instructions.saturating_add(sim.measure_instructions);
    let cache = TraceCache::plan(jobs.iter().map(|job| &job.spec), opts.cap_bytes, budget);
    let n = jobs.len();
    let ctx = MatrixContext {
        sim: *sim,
        checkpoint: opts.checkpoint.as_deref(),
        fault: opts.fault,
        job_timeout: opts.job_timeout,
        cache: &cache,
    };
    let boxed: Vec<BoxedJob<'_, Result<MatrixOutput, JobError>>> = jobs
        .into_iter()
        .enumerate()
        .map(|(index, MatrixJob { factory, spec })| {
            let ctx = &ctx;
            Box::new(move || run_cell(ctx, index, factory.as_ref(), &spec))
                as BoxedJob<'_, Result<MatrixOutput, JobError>>
        })
        .collect();

    let used_threads = opts.threads.max(1).min(n.max(1));
    let outputs = run_jobs_with(opts.threads, boxed);
    MatrixReport {
        outputs,
        threads: used_threads,
        cache: cache.stats(),
        job_timeout: opts.job_timeout,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::compare;
    use llbpx::{Llbp, LlbpConfig};
    use std::path::PathBuf;
    use tage::{TageScl, TslConfig};

    fn tiny_spec(name: &str, seed: u64) -> WorkloadSpec {
        WorkloadSpec::new(name, seed).with_request_types(64).with_handlers(8)
    }

    fn tiny_sim() -> Simulation {
        Simulation { warmup_instructions: 60_000, measure_instructions: 150_000 }
    }

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("llbpx-exec-{tag}-{}.jsonl", std::process::id()))
    }

    fn with_fault(
        threads: usize,
        cap: u64,
        checkpoint: Option<Arc<Checkpoint>>,
        fault: Option<FaultSpec>,
    ) -> EngineOptions {
        EngineOptions { checkpoint, fault, ..EngineOptions::basic(threads, cap) }
    }

    #[test]
    fn run_jobs_preserves_submission_order() {
        let jobs: Vec<BoxedJob<'_, usize>> =
            (0..17usize).map(|i| Box::new(move || i * i) as BoxedJob<'_, usize>).collect();
        let results = run_jobs_with(4, jobs);
        assert_eq!(results, (0..17).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn run_jobs_borrows_from_the_caller() {
        let inputs = [1u64, 2, 3];
        let jobs: Vec<BoxedJob<'_, u64>> =
            inputs.iter().map(|v| Box::new(move || v + 10) as BoxedJob<'_, u64>).collect();
        assert_eq!(run_jobs_with(2, jobs), vec![11, 12, 13]);
    }

    #[test]
    fn materialized_replay_is_bit_identical_to_streaming() {
        let sim = tiny_sim();
        let spec = tiny_spec("mat", 7);
        let streamed = sim.run(&mut TageScl::new(TslConfig::kilobytes(64)), &spec);

        let trace = materialize(&spec, sim.warmup_instructions + sim.measure_instructions, u64::MAX)
            .expect("uncapped materialization succeeds");
        let mut replay = SharedTrace::new(trace);
        let replayed = sim.run_stream(
            &mut TageScl::new(TslConfig::kilobytes(64)),
            &mut replay,
            &spec.name,
        );

        assert_eq!(streamed.instructions, replayed.instructions);
        assert_eq!(streamed.cond_branches, replayed.cond_branches);
        assert_eq!(streamed.mispredicts, replayed.mispredicts);
        assert_eq!(streamed.override_candidates, replayed.override_candidates);
        assert_eq!(streamed.intervals, replayed.intervals);
    }

    #[test]
    fn materialization_respects_the_cap() {
        let spec = tiny_spec("cap", 9);
        assert!(materialize(&spec, 100_000, 1024).is_none(), "1 KiB cannot hold 100K instrs");
        assert!(materialize(&spec, 100_000, u64::MAX).is_some());
    }

    #[test]
    fn try_materialize_rejects_invalid_specs_structurally() {
        let bad = WorkloadSpec::new("bad", 1).with_request_types(0);
        match try_materialize(&bad, 1_000, u64::MAX) {
            Err(SimError::InvalidSpec { workload, .. }) => assert_eq!(workload, "bad"),
            other => panic!("expected InvalidSpec, got {:?}", other.map(|t| t.is_some())),
        }
    }

    #[test]
    fn fault_specs_parse_every_kind_and_reject_garbage() {
        assert_eq!(
            parse_fault("3"),
            Some(Some(FaultSpec { cell: 3, kind: InjectedFault::Panic }))
        );
        assert_eq!(
            parse_fault("0:slow"),
            Some(Some(FaultSpec { cell: 0, kind: InjectedFault::Slow }))
        );
        assert_eq!(
            parse_fault("1:panic"),
            Some(Some(FaultSpec { cell: 1, kind: InjectedFault::Panic }))
        );
        for bad in ["", "x", "-1", "2:bogus", "2:stall", ":slow", "slow:2"] {
            assert_eq!(parse_fault(bad), None, "{bad:?} must be rejected");
        }
    }

    fn standard_jobs<'a>(specs: &'a [WorkloadSpec]) -> Vec<MatrixJob<'a>> {
        let mut jobs = Vec::new();
        for spec in specs {
            jobs.push(MatrixJob::new(
                || Box::new(TageScl::new(TslConfig::kilobytes(64))) as Box<dyn SimPredictor>,
                spec,
            ));
            jobs.push(MatrixJob::new(
                || Box::new(Llbp::new(LlbpConfig::paper_baseline())) as Box<dyn SimPredictor>,
                spec,
            ));
        }
        jobs
    }

    #[test]
    fn matrix_matches_serial_compare_at_every_thread_count() {
        let sim = tiny_sim();
        let specs = [tiny_spec("a", 3), tiny_spec("b", 4)];

        let mut serial = Vec::new();
        for spec in &specs {
            let mut tsl = TageScl::new(TslConfig::kilobytes(64));
            let mut llbp = Llbp::new(LlbpConfig::paper_baseline());
            serial.extend(compare(
                &sim,
                spec,
                [&mut tsl as &mut dyn SimPredictor, &mut llbp as &mut dyn SimPredictor],
            ));
        }

        for threads in [1usize, 4] {
            for cap in [0u64, u64::MAX] {
                let report = run_matrix_with(&sim, standard_jobs(&specs), threads, cap);
                assert_eq!(report.outputs.len(), serial.len());
                assert_eq!(report.failed_cells(), 0);
                for (parallel, serial) in report.outputs.iter().zip(&serial) {
                    let parallel = parallel.as_ref().expect("no cell fails");
                    assert_eq!(parallel.result.name, serial.name);
                    assert_eq!(parallel.result.workload, serial.workload);
                    assert_eq!(parallel.result.instructions, serial.instructions);
                    assert_eq!(parallel.result.mispredicts, serial.mispredicts);
                    assert_eq!(
                        parallel.result.override_candidates,
                        serial.override_candidates
                    );
                    assert_eq!(parallel.result.intervals, serial.intervals);
                    assert!(parallel.storage_bits > 0);
                    // Per-run trace attribution follows the path that
                    // actually ran, not the global engine config.
                    let expected = if cap == 0 {
                        TraceSource::Streamed
                    } else {
                        TraceSource::Materialized
                    };
                    assert_eq!(parallel.result.trace_source, expected);
                    assert!(!parallel.result.resumed);
                }
                if cap == u64::MAX {
                    assert_eq!(report.cache.specs_cached, 2);
                } else {
                    assert_eq!(report.cache.specs_cached, 0);
                    assert_eq!(report.cache.specs_streamed, 2);
                }
            }
        }
    }

    #[test]
    fn worker_profiles_travel_with_their_runs() {
        let sim = tiny_sim();
        let spec = tiny_spec("prof", 5);
        let jobs = vec![
            MatrixJob::new(
                || Box::new(Llbp::new(LlbpConfig::paper_baseline())) as Box<dyn SimPredictor>,
                &spec,
            ),
            MatrixJob::new(
                || Box::new(Llbp::new(LlbpConfig::paper_baseline())) as Box<dyn SimPredictor>,
                &spec,
            ),
        ];
        let report = run_matrix_with(&sim, jobs, 4, u64::MAX);
        for output in &report.outputs {
            let output = output.as_ref().expect("no cell fails");
            let named: Vec<&str> = output.result.profile.iter().map(|s| s.name).collect();
            for scope in ["tage::predict", "tage::update", "llbp::pattern_lookup"] {
                assert!(named.contains(&scope), "{scope} missing from {named:?}");
            }
            assert!(output.result.wall_seconds > 0.0);
        }
    }

    #[test]
    fn a_panicking_cell_is_isolated_from_the_rest_of_the_matrix() {
        let sim = tiny_sim();
        let spec = tiny_spec("iso", 11);
        let clean = sim.run(&mut TageScl::new(TslConfig::kilobytes(64)), &spec);

        for threads in [1usize, 4] {
            let jobs = vec![
                MatrixJob::new(
                    || Box::new(TageScl::new(TslConfig::kilobytes(64))) as Box<dyn SimPredictor>,
                    &spec,
                ),
                MatrixJob::new(
                    || panic!("factory exploded on purpose"),
                    &spec,
                ),
                MatrixJob::new(
                    || Box::new(TageScl::new(TslConfig::kilobytes(64))) as Box<dyn SimPredictor>,
                    &spec,
                ),
            ];
            let report = run_matrix_with(&sim, jobs, threads, u64::MAX);
            assert_eq!(report.failed_cells(), 1);
            let err = report.outputs[1].as_ref().expect_err("cell 1 fails");
            assert_eq!(err.index, 1);
            assert_eq!(err.workload, spec.name);
            assert_eq!(err.predictor, None, "the factory never produced one");
            assert_eq!(err.kind, JobErrorKind::Panic);
            assert!(err.message.contains("factory exploded"), "{}", err.message);
            for i in [0usize, 2] {
                let ok = report.outputs[i].as_ref().expect("survivors complete");
                assert_eq!(ok.result.mispredicts, clean.mispredicts);
                assert!(!ok.result.is_failed());
            }
        }
    }

    #[test]
    fn fault_injection_fails_exactly_the_chosen_cell() {
        let sim = tiny_sim();
        let specs = [tiny_spec("fault", 13)];
        let fault = FaultSpec { cell: 1, kind: InjectedFault::Panic };
        let report = run_matrix_opts(
            &sim,
            standard_jobs(&specs),
            with_fault(2, u64::MAX, None, Some(fault)),
        );
        assert_eq!(report.failed_cells(), 1);
        let err = report.outputs[1].as_ref().expect_err("cell 1 is the fault cell");
        assert!(err.message.contains(ENV_FAULT_CELL), "{}", err.message);
        assert_eq!(err.predictor.as_deref(), Some("LLBP"), "run-stage failures carry the label");
        assert!(err.fingerprint.is_some());
        assert!(report.outputs[0].is_ok());
    }

    #[test]
    fn checkpointed_matrix_resumes_bit_identically() {
        let sim = tiny_sim();
        let specs = [tiny_spec("ckpt", 17)];
        let path = tmp("resume");
        let _ = std::fs::remove_file(&path);
        let fault = FaultSpec { cell: 1, kind: InjectedFault::Panic };

        let clean = run_matrix_with(&sim, standard_jobs(&specs), 2, u64::MAX);

        // First pass: cell 1 faults, so only cell 0 lands in the journal.
        let cp = Arc::new(Checkpoint::open(&path).expect("journal opens"));
        let first = run_matrix_opts(
            &sim,
            standard_jobs(&specs),
            with_fault(2, u64::MAX, Some(cp), Some(fault)),
        );
        assert_eq!(first.failed_cells(), 1);
        assert_eq!(first.resumed_cells(), 0);

        // Second pass with the same journal and no fault: cell 0 restores,
        // cell 1 simulates, and every metric matches the clean run.
        let cp = Arc::new(Checkpoint::open(&path).expect("journal reopens"));
        assert_eq!(cp.len(), 1, "only the completed cell was journaled");
        let second = run_matrix_opts(
            &sim,
            standard_jobs(&specs),
            with_fault(2, u64::MAX, Some(cp), None),
        );
        assert_eq!(second.failed_cells(), 0);
        assert_eq!(second.resumed_cells(), 1);
        for (resumed, clean) in second.outputs.iter().zip(&clean.outputs) {
            let resumed = resumed.as_ref().expect("no cell fails");
            let clean = clean.as_ref().expect("no cell fails");
            assert_eq!(resumed.result.name, clean.result.name);
            assert_eq!(resumed.result.instructions, clean.result.instructions);
            assert_eq!(resumed.result.mispredicts, clean.result.mispredicts);
            assert_eq!(
                resumed.result.override_candidates,
                clean.result.override_candidates
            );
            assert_eq!(resumed.result.intervals, clean.result.intervals);
            assert_eq!(resumed.storage_bits, clean.storage_bits);
        }
        assert!(second.outputs[0].as_ref().is_ok_and(|o| o.result.resumed));
        assert!(second.outputs[1].as_ref().is_ok_and(|o| !o.result.resumed));

        // Third pass: everything restores; nothing is simulated.
        let cp = Arc::new(Checkpoint::open(&path).expect("journal reopens again"));
        assert_eq!(cp.len(), 2);
        let third = run_matrix_opts(
            &sim,
            standard_jobs(&specs),
            with_fault(2, u64::MAX, Some(cp), None),
        );
        assert_eq!(third.resumed_cells(), 2);

        // A different budget changes every fingerprint: nothing restores.
        let other = Simulation { warmup_instructions: 50_000, ..sim };
        let cp = Arc::new(Checkpoint::open(&path).expect("journal reopens once more"));
        let fourth = run_matrix_opts(
            &other,
            standard_jobs(&specs),
            with_fault(2, u64::MAX, Some(cp), None),
        );
        assert_eq!(fourth.resumed_cells(), 0, "stale fingerprints never match");

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn slow_cell_hits_the_wall_clock_deadline() {
        let sim = tiny_sim();
        let spec = tiny_spec("slow", 23);
        let tsl = || Box::new(TageScl::new(TslConfig::kilobytes(64))) as Box<dyn SimPredictor>;
        let jobs = vec![MatrixJob::new(tsl, &spec), MatrixJob::new(tsl, &spec)];
        // Each cell's deadline counts from its own start; the healthy TSL
        // cell needs a small fraction of it even in an unoptimized build.
        let timeout = Duration::from_secs(2);
        let opts = EngineOptions {
            fault: Some(FaultSpec { cell: 0, kind: InjectedFault::Slow }),
            job_timeout: Some(timeout),
            ..EngineOptions::basic(1, u64::MAX)
        };
        let started = Instant::now();
        let report = run_matrix_opts(&sim, jobs, opts);
        assert!(started.elapsed() >= timeout, "it hangs until the deadline");
        assert_eq!(report.timed_out_cells(), 1);
        let err = report.outputs[0].as_ref().expect_err("the slow cell");
        assert_eq!(err.kind, JobErrorKind::TimedOut);
        assert_eq!(err.kind.status(), "timeout");
        assert!(err.message.contains(ENV_JOB_TIMEOUT), "{}", err.message);
        assert!(report.outputs[1].is_ok(), "the healthy cell still completes");
    }

    #[test]
    fn a_running_cell_stops_at_its_deadline() {
        let sim = tiny_sim();
        let specs = [tiny_spec("deadline", 29)];
        let opts = EngineOptions {
            job_timeout: Some(Duration::from_nanos(1)),
            ..EngineOptions::basic(2, u64::MAX)
        };
        let report = run_matrix_opts(&sim, standard_jobs(&specs), opts);
        assert_eq!(report.timed_out_cells(), 2);
        for output in &report.outputs {
            let err = output.as_ref().expect_err("no cell beats a 1ns deadline");
            assert!(!err.message.contains("after 0 simulated"), "{}", err.message);
        }
    }

    /// A slow fault with no deadline to end it would hang the sweep, so it
    /// panics instead.
    #[test]
    fn unwatched_stall_faults_downgrade_to_panics_instead_of_hanging() {
        let sim = tiny_sim();
        let specs = [tiny_spec("nohang", 29)];
        let opts = EngineOptions {
            fault: Some(FaultSpec { cell: 0, kind: InjectedFault::Slow }),
            ..EngineOptions::basic(1, u64::MAX)
        };
        let report = run_matrix_opts(&sim, standard_jobs(&specs), opts);
        let err = report.outputs[0].as_ref().expect_err("the faulted cell");
        assert_eq!(err.kind, JobErrorKind::Panic, "nothing could end it, so it panics");
        assert!(err.message.contains(ENV_FAULT_CELL), "{}", err.message);
    }

    #[test]
    fn a_failed_trace_fails_every_cell_that_shares_it() {
        let sim = tiny_sim();
        let bad = WorkloadSpec::new("bad", 1).with_request_types(0);
        let good = tiny_spec("good", 31);
        for cap in [0u64, u64::MAX] {
            let report =
                run_matrix_with(&sim, standard_jobs(&[bad.clone(), good.clone()]), 2, cap);
            assert_eq!(report.failed_cells(), 2, "cap={cap}");
            for err in report.failures() {
                assert_eq!(err.workload, "bad");
                assert_eq!(err.kind, JobErrorKind::Panic);
                assert!(err.message.contains("invalid workload spec `bad`"), "{}", err.message);
            }
            assert!(report.outputs[2].is_ok() && report.outputs[3].is_ok());
        }
    }
}
