//! The benchmark's workloads: which cells each runs at which protocol, the
//! timed set-up phase, and the untraced and traced passes over the cells.
//!
//! Every pass drives the entry points the fig/table binaries use
//! (`exec::run_matrix_with` / `exec::run_jobs_with`,
//! `Simulation::run_stream`, `analysis::analyze_contexts`, the `bench::`
//! design constructors and `bench::opt_w_oracle`) with the engine options
//! set explicitly, so no environment variable changes a workload.

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::time::Instant;

use bpsim::analysis::{analyze_contexts, ContextAnalysis, ContextProfile};
use bpsim::error::panic_message;
use bpsim::exec::{self, BoxedJob, MatrixReport};
use bpsim::{RunResult, SimPredictor, Simulation};
use llbpx::{Llbp, LlbpConfig};
use tage::{TageScl, TslConfig};
use telemetry::prng::SplitMix64;
use workloads::{ServerWorkload, WorkloadSpec};

use crate::counters::{CellCounters, CellOutcome};
use crate::probe::{
    timed_factory, with_spans, CellSpans, Slot, StagedTsl, TimedPredictor, TimedStream,
};

/// Engine worker threads, fixed whatever the host has.
pub const THREADS: usize = 2;

/// Shared trace-cache cap: large enough that every workload's traces are
/// materialized, never demoted to streaming.
pub const TRACE_CACHE_BYTES: u64 = 2048 << 20;

/// The seed that keeps every preset's own seed; any other value re-seeds
/// every preset spec.
pub const DEFAULT_SEED: u64 = 0;

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 64K and 512K TAGE-SC-L on four presets through the matrix engine.
    TslSweep,
    /// The Fig. 12 column set on two presets through the matrix engine.
    LlbpxFig12,
    /// Inf TSL and the +Inf-Patterns context analysis, streamed.
    IdealizedAnalysis,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [
        Workload::TslSweep,
        Workload::LlbpxFig12,
        Workload::IdealizedAnalysis,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TslSweep => "tsl_sweep",
            Workload::LlbpxFig12 => "llbpx_fig12",
            Workload::IdealizedAnalysis => "idealized_analysis",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn presets(self) -> &'static [&'static str] {
        match self {
            Workload::TslSweep => &["NodeApp", "Wikipedia", "Kafka", "Whiskey"],
            Workload::LlbpxFig12 => &["NodeApp", "Kafka"],
            Workload::IdealizedAnalysis => &["NodeApp"],
        }
    }

    fn designs(self) -> &'static [Design] {
        match self {
            Workload::TslSweep => &[Design::Tsl64, Design::Tsl512],
            Workload::LlbpxFig12 => &[
                Design::Tsl64,
                Design::Llbp,
                Design::Llbpx,
                Design::LlbpxOptW,
                Design::Tsl512,
            ],
            // The longest cell first, so the two others share the second
            // worker and the single-threaded tail is as short as three
            // cells on two workers allow.
            Workload::IdealizedAnalysis => &[
                Design::TslInf,
                Design::InfPatterns(64),
                Design::InfPatterns(8),
            ],
        }
    }

    /// Warmup and measured instructions of every cell.
    pub fn protocol(self) -> Simulation {
        let (warmup, measure) = match self {
            Workload::TslSweep => (4_000_000, 8_000_000),
            Workload::LlbpxFig12 => (2_000_000, 4_000_000),
            Workload::IdealizedAnalysis => (4_000_000, 8_000_000),
        };
        Simulation {
            warmup_instructions: warmup,
            measure_instructions: measure,
        }
    }

    /// Whether the cells stream their workload instead of replaying the
    /// engine's shared trace cache.
    pub(crate) fn streams(self) -> bool {
        self == Workload::IdealizedAnalysis
    }

    /// The distinct workload specs, seeded by `seed`.
    pub fn specs(self, seed: u64) -> Vec<WorkloadSpec> {
        let all = workloads::presets::all();
        self.presets()
            .iter()
            .filter_map(|name| all.iter().find(|p| p.spec.name == *name))
            .map(|p| reseed(p.spec.clone(), seed))
            .collect()
    }

    /// Every cell, preset by preset, in submission order.
    pub fn cells(self, seed: u64) -> Vec<Cell> {
        self.specs(seed)
            .into_iter()
            .flat_map(|spec| {
                self.designs().iter().map(move |&design| Cell {
                    design,
                    spec: spec.clone(),
                })
            })
            .collect()
    }
}

/// `spec` with its seed replaced by one derived from `seed`, unless `seed`
/// is [`DEFAULT_SEED`]. Each preset keeps a seed of its own.
pub fn reseed(mut spec: WorkloadSpec, seed: u64) -> WorkloadSpec {
    if seed != DEFAULT_SEED {
        spec.seed = SplitMix64::new(spec.seed ^ seed).next_u64();
    }
    spec
}

/// A predictor design of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Design {
    /// 64K TAGE-SC-L.
    Tsl64,
    /// 512K TAGE-SC-L.
    Tsl512,
    /// Infinite TAGE-SC-L.
    TslInf,
    /// LLBP.
    Llbp,
    /// LLBP-X.
    Llbpx,
    /// LLBP-X with the Opt-W depth oracle trained by a full LLBP-X run.
    LlbpxOptW,
    /// The +Inf-Patterns context analysis at context depth W.
    InfPatterns(usize),
}

impl Design {
    /// The design's label, as the fig/table binaries name it.
    pub fn label(self) -> String {
        match self {
            Design::Tsl64 => "64K TSL".to_owned(),
            Design::Tsl512 => "512K TSL".to_owned(),
            Design::TslInf => "Inf TSL".to_owned(),
            Design::Llbp => "LLBP".to_owned(),
            Design::Llbpx => "LLBP-X".to_owned(),
            Design::LlbpxOptW => "LLBP-X Opt-W".to_owned(),
            Design::InfPatterns(w) => format!("+Inf Patterns W={w}"),
        }
    }

    /// The configuration of a TAGE-SC-L design, as the `bench::`
    /// constructors build it.
    pub fn tsl_config(self) -> Option<TslConfig> {
        match self {
            Design::Tsl64 => Some(TslConfig::kilobytes(64)),
            Design::Tsl512 => Some(TslConfig::kilobytes(512)),
            Design::TslInf => Some(TslConfig::infinite()),
            _ => None,
        }
    }

    /// Builds the design without training anything: the set-up phase's
    /// construction (Opt-W gets an empty oracle).
    pub fn construct(self) -> Box<dyn SimPredictor> {
        match self {
            Design::Tsl64 => bench::tsl64(),
            Design::Tsl512 => bench::tsl(512),
            Design::TslInf => bench::tsl_inf(),
            Design::Llbp => bench::llbp(),
            Design::Llbpx => bench::llbpx(),
            Design::LlbpxOptW => bench::llbpx_opt_w(HashMap::new()),
            Design::InfPatterns(w) => Box::new(Llbp::new(analysis_config(w))),
        }
    }

    /// Builds the design as a pass runs it: Opt-W trains its oracle on
    /// `spec` first, as fig12 does inside its job factory.
    pub(crate) fn build(self, spec: &WorkloadSpec, sim: &Simulation) -> Box<dyn SimPredictor> {
        match self {
            Design::LlbpxOptW => bench::llbpx_opt_w(bench::opt_w_oracle(spec, sim)),
            design => design.construct(),
        }
    }

    /// [`build`](Self::build) with every layer wrapped for the traced pass:
    /// TAGE-SC-L designs are driven through the staged API, every other
    /// design through a timed `process`.
    pub fn traced(
        self,
        spec: &WorkloadSpec,
        sim: &Simulation,
        slot: &Slot,
    ) -> Box<dyn SimPredictor> {
        timed_factory(slot, || match (self, self.tsl_config()) {
            (_, Some(cfg)) => (Box::new(StagedTsl::new(TageScl::new(cfg), slot.clone())), 0),
            (Design::LlbpxOptW, None) => {
                let started = Instant::now();
                let oracle = bench::opt_w_oracle(spec, sim);
                let oracle_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                let design = bench::llbpx_opt_w(oracle);
                (
                    Box::new(TimedPredictor::new(design, slot.clone())),
                    oracle_ns,
                )
            }
            (design, None) => (
                Box::new(TimedPredictor::new(design.construct(), slot.clone())),
                0,
            ),
        })
    }
}

/// The configuration `analyze_contexts` runs at context depth `w`.
pub fn analysis_config(w: usize) -> LlbpConfig {
    LlbpConfig::with_infinite_patterns()
        .with_w(w)
        .with_analysis()
}

/// One predictor × workload cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The design.
    pub design: Design,
    /// The workload it runs on.
    pub spec: WorkloadSpec,
}

impl Cell {
    /// `design / workload`.
    pub fn label(&self) -> String {
        format!("{} / {}", self.design.label(), self.spec.name)
    }
}

/// Host seconds of one set-up phase.
#[derive(Debug, Clone, Copy)]
pub struct SetupTiming {
    /// Building every predictor of the workload.
    pub construct_s: f64,
    /// Materializing every distinct trace through `try_materialize`.
    pub materialize_s: f64,
}

impl SetupTiming {
    /// The whole phase.
    pub fn total_s(&self) -> f64 {
        self.construct_s + self.materialize_s
    }
}

/// Builds every predictor of the workload and materializes every distinct
/// trace it touches, timing both. Streamed workloads materialize too: the
/// phase validates every trace a workload runs on before any cell does.
pub fn setup(workload: Workload, seed: u64, sim: &Simulation) -> Result<SetupTiming, String> {
    let cells = workload.cells(seed);
    let started = Instant::now();
    let built: Vec<Box<dyn SimPredictor>> = cells.iter().map(|c| c.design.construct()).collect();
    let constructed = Instant::now();
    let budget = sim.warmup_instructions + sim.measure_instructions;
    let mut traces = Vec::new();
    for spec in workload.specs(seed) {
        match exec::try_materialize(&spec, budget, TRACE_CACHE_BYTES) {
            Ok(Some(trace)) => traces.push(trace),
            Ok(None) => {
                return Err(format!(
                    "{}: the trace does not fit the trace cache",
                    spec.name
                ))
            }
            Err(e) => return Err(e.to_string()),
        }
    }
    let timing = SetupTiming {
        construct_s: (constructed - started).as_secs_f64(),
        materialize_s: constructed.elapsed().as_secs_f64(),
    };
    drop((built, traces));
    Ok(timing)
}

/// Runs `f`, turning a panic into a failed cell.
fn isolate(f: impl FnOnce() -> CellOutcome) -> CellOutcome {
    std::panic::catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| Err(panic_message(p)))
}

fn new_stream(spec: &WorkloadSpec) -> Result<ServerWorkload, String> {
    ServerWorkload::try_new(spec).map_err(|reason| format!("{}: {reason}", spec.name))
}

fn matrix_outcomes(report: MatrixReport, cells: &[Cell]) -> Vec<CellOutcome> {
    report
        .outputs
        .into_iter()
        .zip(cells)
        .map(|(output, cell)| match output {
            Ok(output) => Ok(CellCounters::from_run(cell.label(), &output.result)),
            Err(e) => Err(e.to_string()),
        })
        .collect()
}

/// One untraced pass over the workload's cells, counters extracted.
pub fn run_pass(workload: Workload, seed: u64, sim: &Simulation) -> Vec<CellOutcome> {
    let cells = workload.cells(seed);
    if workload.streams() {
        let jobs: Vec<BoxedJob<'_, CellOutcome>> = cells
            .iter()
            .map(|cell| {
                Box::new(move || isolate(|| stream_cell(cell, sim))) as BoxedJob<'_, CellOutcome>
            })
            .collect();
        return exec::run_jobs_with(THREADS, jobs);
    }
    let jobs = cells
        .iter()
        .map(|cell| {
            let (design, spec, sim) = (cell.design, cell.spec.clone(), *sim);
            exec::MatrixJob::new(move || design.build(&spec, &sim), &cell.spec)
        })
        .collect();
    matrix_outcomes(
        exec::run_matrix_with(sim, jobs, THREADS, TRACE_CACHE_BYTES),
        &cells,
    )
}

fn stream_cell(cell: &Cell, sim: &Simulation) -> CellOutcome {
    if let Design::InfPatterns(w) = cell.design {
        return Ok(CellCounters::from_analysis(
            cell.label(),
            &analyze_contexts(&cell.spec, w, sim),
        ));
    }
    let mut predictor = cell.design.build(&cell.spec, sim);
    let run = sim.run_stream(
        predictor.as_mut(),
        &mut new_stream(&cell.spec)?,
        &cell.spec.name,
    );
    Ok(CellCounters::from_run(cell.label(), &run))
}

/// The extraction `analyze_contexts` performs on its finished run,
/// repeated through the same public calls.
pub fn extract_analysis(run: RunResult) -> Result<ContextAnalysis, String> {
    let stats = run
        .llbp
        .as_ref()
        .ok_or("the analysis run carries no LLBP stats")?;
    let analysis = stats
        .analysis
        .clone()
        .ok_or("the analysis run did not collect")?;
    let contexts = analysis
        .useful_patterns_per_context()
        .into_iter()
        .map(|(cid, useful_patterns)| ContextProfile {
            cid,
            useful_patterns,
            avg_history_len: analysis.avg_history_len(cid).unwrap_or(0.0),
        })
        .collect();
    Ok(ContextAnalysis {
        contexts,
        duplication: analysis.duplication_by_len(),
        useful_by_len: analysis.useful_by_len,
        run,
    })
}

/// A traced pass: the cells' outcomes, their spans, and the pass clock.
pub struct TracedPass {
    /// Outcomes, in cell order; they must equal the untraced pass's.
    pub cells: Vec<CellOutcome>,
    /// Spans per cell, in cell order.
    pub spans: Vec<CellSpans>,
    /// Seconds inside the engine call.
    pub engine_s: f64,
    /// When each worker's last cell ended, as seconds before the engine
    /// call returned; one entry per worker thread that ran a cell.
    pub worker_tail_s: Vec<f64>,
    /// Worker threads the engine used.
    pub threads: usize,
}

/// One traced pass over the workload's cells: the same entry points and
/// threads as [`run_pass`], with every predictor and streamed workload
/// wrapped by [`crate::probe`].
pub fn run_traced_pass(workload: Workload, seed: u64, sim: &Simulation) -> TracedPass {
    // Calibrated before the pass, so the calibration is not part of it.
    crate::probe::clock_overhead_ns();
    let cells = workload.cells(seed);
    let slots: Vec<Slot> = cells.iter().map(|_| Slot::default()).collect();
    let engine_start = Instant::now();
    let outcomes = if workload.streams() {
        let jobs: Vec<BoxedJob<'_, CellOutcome>> = cells
            .iter()
            .zip(&slots)
            .map(|(cell, slot)| {
                Box::new(move || isolate(|| traced_stream_cell(cell, sim, slot)))
                    as BoxedJob<'_, CellOutcome>
            })
            .collect();
        exec::run_jobs_with(THREADS, jobs)
    } else {
        let jobs = cells
            .iter()
            .zip(&slots)
            .map(|(cell, slot)| {
                let (design, spec, sim, slot) =
                    (cell.design, cell.spec.clone(), *sim, slot.clone());
                exec::MatrixJob::new(move || design.traced(&spec, &sim, &slot), &cell.spec)
            })
            .collect();
        matrix_outcomes(
            exec::run_matrix_with(sim, jobs, THREADS, TRACE_CACHE_BYTES),
            &cells,
        )
    };
    let engine_end = Instant::now();
    let spans: Vec<CellSpans> = slots
        .iter()
        .map(|slot| with_spans(slot, |s| s.clone()))
        .collect();
    let mut last_end: HashMap<std::thread::ThreadId, Instant> = HashMap::new();
    for s in &spans {
        if let (Some(thread), Some(end)) = (s.thread, s.end) {
            let last = last_end.entry(thread).or_insert(end);
            *last = (*last).max(end);
        }
    }
    TracedPass {
        cells: outcomes,
        spans,
        engine_s: (engine_end - engine_start).as_secs_f64(),
        worker_tail_s: last_end
            .values()
            .map(|&end| (engine_end - end).as_secs_f64())
            .collect(),
        threads: THREADS.min(cells.len()),
    }
}

fn traced_stream_cell(cell: &Cell, sim: &Simulation, slot: &Slot) -> CellOutcome {
    let mut predictor = cell.design.traced(&cell.spec, sim, slot);
    let mut stream = TimedStream::new(new_stream(&cell.spec)?);
    let run = sim.run_stream(predictor.as_mut(), &mut stream, &cell.spec.name);
    with_spans(slot, |s| s.stream = Some(stream.trace()));
    if !matches!(cell.design, Design::InfPatterns(_)) {
        return Ok(CellCounters::from_run(cell.label(), &run));
    }
    let started = Instant::now();
    let analysis = extract_analysis(run)?;
    let ended = Instant::now();
    with_spans(slot, |s| {
        s.extract_ns = u64::try_from((ended - started).as_nanos()).unwrap_or(u64::MAX);
        s.end = Some(ended);
    });
    Ok(CellCounters::from_analysis(cell.label(), &analysis))
}
