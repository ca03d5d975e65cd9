//! Every metric the benchmark reports, and how the per-layer ones are
//! computed from a traced pass.

use std::time::Instant;

use crate::counters::CellOutcome;
use crate::probe::{CellSpans, CellSplit};
use crate::workload::{TracedPass, Workload};

/// Which direction of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Lower values are better.
    Lower,
    /// Higher values are better.
    Higher,
}

impl Better {
    /// `"lower"` or `"higher"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Better direction.
    pub better: Better,
    /// Computed by subtraction from other spans, not timed itself.
    pub derived: bool,
    /// The workloads that run the layer it measures.
    pub applies: &'static [Workload],
}

impl Metric {
    /// Whether `workload` runs the layer this metric measures. Where it
    /// does not, the metric reads 0 and is left out of records.
    pub fn applies_to(&self, workload: Workload) -> bool {
        self.applies.contains(&workload)
    }
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    derived: bool,
    applies: &'static [Workload],
) -> Metric {
    Metric {
        name,
        unit,
        better,
        derived,
        applies,
    }
}

use Better::{Higher, Lower};

const ALL: &[Workload] = &Workload::ALL;
/// Workloads with LLBP-family cells.
const LLBP: &[Workload] = &[Workload::LlbpxFig12, Workload::IdealizedAnalysis];
/// The one workload with Opt-W cells.
const OPT_W: &[Workload] = &[Workload::LlbpxFig12];
/// The one workload that streams, and runs the context analysis.
const STREAMED: &[Workload] = &[Workload::IdealizedAnalysis];

/// End-to-end metrics of an untraced run.
pub const END_TO_END: &[Metric] = &[
    m("wall_s", "s", Lower, false, ALL),
    m("cpu_s", "s", Lower, false, ALL),
    m("setup_s", "s", Lower, false, ALL),
    m("sim_minst_per_s", "Minst/s", Higher, false, ALL),
    m("peak_rss_mb", "MiB", Lower, false, ALL),
    m("cells_ok_frac", "frac", Higher, false, ALL),
];

/// Per-layer metrics of a traced run.
pub const PER_LAYER: &[Metric] = &[
    m("tage.predict_s", "s", Lower, false, ALL),
    m("tage.loop_s", "s", Lower, false, ALL),
    m("tage.sc_s", "s", Lower, false, ALL),
    m("tage.train_s", "s", Lower, false, ALL),
    m("tage.history_s", "s", Lower, false, ALL),
    m("tage.cond_calls", "count", Lower, false, ALL),
    m("tage.uncond_calls", "count", Lower, false, ALL),
    m("tage.ns_per_branch", "ns", Lower, false, ALL),
    m("tage.population", "count", Lower, false, ALL),
    m("llbpx.cond_s", "s", Lower, false, LLBP),
    m("llbpx.uncond_s", "s", Lower, false, LLBP),
    m("llbpx.finish_s", "s", Lower, false, LLBP),
    m("llbpx.ns_per_branch", "ns", Lower, false, LLBP),
    m("llbpx.analysis_extract_s", "s", Lower, false, STREAMED),
    m("llbpx.pb_accesses", "count", Lower, false, LLBP),
    m("llbpx.cd_accesses", "count", Lower, false, LLBP),
    m("llbpx.ps_reads", "count", Lower, false, LLBP),
    m("llbpx.allocations", "count", Lower, false, LLBP),
    m("llbpx.provided_frac", "frac", Higher, false, LLBP),
    m("llbpx.prefetch_useful_frac", "frac", Higher, false, LLBP),
    m("bench.construct_s", "s", Lower, false, ALL),
    m("bench.opt_w_oracle_s", "s", Lower, false, OPT_W),
    m("sim.exec.materialize_s", "s", Lower, false, ALL),
    m("sim.exec.acquire_s", "s", Lower, false, ALL),
    m("sim.exec.idle_s", "s", Lower, true, ALL),
    m("sim.exec.cells", "count", Higher, false, ALL),
    m("sim.exec.cells_per_trace", "count", Higher, false, ALL),
    m("sim.runner.cell_s", "s", Lower, false, ALL),
    m("sim.runner.self_s", "s", Lower, true, ALL),
    m("workloads.stream_s", "s", Lower, false, STREAMED),
    m("workloads.records", "count", Lower, false, STREAMED),
    m("trace.overhead_frac", "ratio", Lower, false, ALL),
    m("trace.residual_s", "s", Lower, true, ALL),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics a traced pass yields by itself, in
/// [`PER_LAYER`] order. `sim.exec.materialize_s` and
/// `trace.overhead_frac` need the set-up phase and the untraced passes, so
/// the caller adds them. A metric of a layer the workload does not run
/// reads 0.
///
/// Thread time is accounted as `threads × engine span`: the cells' spans
/// (factory, acquisition, the run itself) are busy time, a worker's wait
/// after its last cell is `sim.exec.idle_s`, and what remains (engine
/// bookkeeping between cells, plus coordinator time outside the engine
/// call) is `trace.residual_s`.
pub fn layer_metrics(pass: &TracedPass, pass_s: f64, traces: usize) -> Vec<(&'static str, f64)> {
    let spans = &pass.spans;
    let splits: Vec<CellSplit> = spans.iter().map(CellSpans::split).collect();
    let sum = |f: &dyn Fn(&CellSpans) -> f64| spans.iter().map(f).sum::<f64>();
    let sum_split = |f: &dyn Fn(&CellSplit) -> f64| splits.iter().map(f).sum::<f64>();
    let secs = |ns: u64| ns as f64 * 1e-9;
    let between = |a: Option<Instant>, b: Option<Instant>| match (a, b) {
        (Some(a), Some(b)) => b.saturating_duration_since(a).as_secs_f64(),
        _ => 0.0,
    };

    let stage = |i: usize| sum_split(&|c| c.tsl_stages_s[i]);
    let tage_cond = sum(&|s| s.tsl.map_or(0.0, |t| t.cond.calls as f64));
    let tage_uncond = sum(&|s| s.tsl.map_or(0.0, |t| t.uncond.calls as f64));
    let tage_s = sum_split(&|c| c.tsl_stages_s.iter().sum());

    let llbp_cond = sum_split(&|c| c.llbp_cond_s);
    let llbp_uncond = sum_split(&|c| c.llbp_uncond_s);
    let llbp_calls = sum(&|s| {
        s.llbp
            .map_or(0.0, |l| (l.cond.calls + l.uncond.calls) as f64)
    });

    let ok_cells = || {
        pass.cells
            .iter()
            .filter_map(|c: &CellOutcome| c.as_ref().ok())
    };
    let counter = |name: &str| -> f64 {
        ok_cells()
            .filter_map(|c| c.get(name))
            .map(|v| v as f64)
            .sum()
    };
    let llbp_cond_branches: f64 = ok_cells()
        .filter(|c| c.get("llbp.cond_branches").is_some())
        .filter_map(|c| c.get("cond_branches"))
        .map(|v| v as f64)
        .sum();
    let classified = counter("llbp.prefetch_on_time")
        + counter("llbp.prefetch_late")
        + counter("llbp.prefetch_unused");

    let busy = sum(&|s| between(s.start, s.end));
    let threads = pass.threads as f64;
    let idle = pass.worker_tail_s.iter().sum::<f64>()
        + (threads - pass.worker_tail_s.len() as f64).max(0.0) * pass.engine_s;
    let residual = threads * pass.engine_s - busy - idle + (pass_s - pass.engine_s);
    let cells = spans.len() as f64;

    vec![
        ("tage.predict_s", stage(0)),
        ("tage.loop_s", stage(1)),
        ("tage.sc_s", stage(2)),
        ("tage.train_s", stage(3)),
        ("tage.history_s", stage(4)),
        ("tage.cond_calls", tage_cond),
        ("tage.uncond_calls", tage_uncond),
        (
            "tage.ns_per_branch",
            ratio(tage_s * 1e9, tage_cond + tage_uncond),
        ),
        (
            "tage.population",
            sum(&|s| s.tsl.map_or(0.0, |t| t.population as f64)),
        ),
        ("llbpx.cond_s", llbp_cond),
        ("llbpx.uncond_s", llbp_uncond),
        ("llbpx.finish_s", sum_split(&|c| c.finish_s)),
        (
            "llbpx.ns_per_branch",
            ratio((llbp_cond + llbp_uncond) * 1e9, llbp_calls),
        ),
        ("llbpx.analysis_extract_s", sum(&|s| secs(s.extract_ns))),
        ("llbpx.pb_accesses", counter("llbp.pb_accesses")),
        ("llbpx.cd_accesses", counter("llbp.cd_accesses")),
        ("llbpx.ps_reads", counter("llbp.ps_reads")),
        ("llbpx.allocations", counter("llbp.allocations")),
        (
            "llbpx.provided_frac",
            ratio(counter("llbp.llbp_provided"), llbp_cond_branches),
        ),
        (
            "llbpx.prefetch_useful_frac",
            ratio(counter("llbp.prefetch_on_time"), classified),
        ),
        ("bench.construct_s", sum(&|s| secs(s.construct_ns))),
        ("bench.opt_w_oracle_s", sum(&|s| secs(s.oracle_ns))),
        (
            "sim.exec.acquire_s",
            sum(&|s| between(s.created, s.first_process)),
        ),
        ("sim.exec.idle_s", idle),
        ("sim.exec.cells", cells),
        ("sim.exec.cells_per_trace", ratio(cells, traces as f64)),
        ("sim.runner.cell_s", sum_split(&|c| c.cell_s)),
        ("sim.runner.self_s", sum_split(&|c| c.runner_self_s)),
        ("workloads.stream_s", sum_split(&|c| c.stream_s)),
        (
            "workloads.records",
            sum(&|s| s.stream.map_or(0.0, |t| t.calls.calls as f64)),
        ),
        ("trace.residual_s", residual),
    ]
}
