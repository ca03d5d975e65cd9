//! Outside-in timing wrappers for the traced pass.
//!
//! Every predictor of a traced cell is wrapped in its own [`SimPredictor`]
//! and every streamed workload in its own [`BranchStream`], so the layers
//! are timed around their public calls without touching the program.
//!
//! Per-branch calls are timed on a fixed 1-in-[`SAMPLE_EVERY`] sample with
//! exact call counts: a clock-read pair costs a sizeable fraction of one
//! branch, so timing every call would distort the pass it measures. Cell
//! spans (factory, first `process`, `finish`) are timed exactly.

use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::ThreadId;
use std::time::Instant;

use bpsim::predictor::Observation;
use bpsim::SimPredictor;
use tage::tsl::TslInfo;
use tage::{DirectionPredictor, PredictInput, TageScl, Update};
use traces::{BranchRecord, BranchStream};

/// One in this many per-branch calls is timed; every call is counted.
pub const SAMPLE_EVERY: u64 = 16;

/// Exact call count plus the fixed sample of timed calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sampler {
    /// Every call.
    pub calls: u64,
    /// The calls that were timed.
    pub sampled: u64,
}

impl Sampler {
    /// Counts one call and says whether to time it.
    #[inline]
    pub fn tick(&mut self) -> bool {
        let timed = self.calls.is_multiple_of(SAMPLE_EVERY);
        self.calls += 1;
        self.sampled += u64::from(timed);
        timed
    }

    /// Scales nanoseconds measured on the sampled calls (one lap each) to
    /// seconds over every call.
    pub fn scale_s(&self, sampled_ns: u64) -> f64 {
        scale_s(sampled_ns, self.sampled, self.calls)
    }
}

/// `laps` laps took `ns` in all; the estimate for `total` such laps, in
/// seconds, less the clock's own cost per lap.
fn scale_s(ns: u64, laps: u64, total: u64) -> f64 {
    if laps == 0 {
        return 0.0;
    }
    let net = ns.saturating_sub(laps * clock_overhead_ns());
    net as f64 * (total as f64 / laps as f64) * 1e-9
}

/// What one lap adds by itself: the median gap between back-to-back clock
/// reads, measured once per process.
pub(crate) fn clock_overhead_ns() -> u64 {
    static OVERHEAD: OnceLock<u64> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        let mut gaps: Vec<u64> = Vec::with_capacity(20_001);
        let mut last = Instant::now();
        for _ in 0..20_001 {
            let now = Instant::now();
            gaps.push(nanos(now - last));
            last = now;
        }
        gaps.sort_unstable();
        gaps[gaps.len() / 2]
    })
}

/// Consecutive clock reads on a timed call; inert on an untimed one.
struct Laps(Option<Instant>);

impl Laps {
    #[inline]
    fn start(timed: bool) -> Self {
        Laps(timed.then(Instant::now))
    }

    /// Adds the time since the previous read to `acc`.
    #[inline]
    fn lap(&mut self, acc: &mut u64) {
        if let Some(last) = self.0 {
            let now = Instant::now();
            *acc += nanos(now - last);
            self.0 = Some(now);
        }
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn between(a: Option<Instant>, b: Option<Instant>) -> f64 {
    match (a, b) {
        (Some(a), Some(b)) => b.saturating_duration_since(a).as_secs_f64(),
        _ => 0.0,
    }
}

/// TAGE-SC-L stage times of one cell, on the sampled calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct TslTrace {
    /// Conditional branches.
    pub cond: Sampler,
    /// Unconditional branches (history update only).
    pub uncond: Sampler,
    /// `tage_info` on sampled conditional branches.
    pub predict_ns: u64,
    /// `loop_info`.
    pub loop_ns: u64,
    /// `sc_eval` plus `combine`.
    pub sc_ns: u64,
    /// `train` (loop, SC and TAGE updates).
    pub train_ns: u64,
    /// `update_history` on sampled conditional branches.
    pub history_cond_ns: u64,
    /// `update_history` on sampled unconditional branches.
    pub history_uncond_ns: u64,
    /// Live tagged entries when the cell finished.
    pub population: u64,
}

impl TslTrace {
    /// Estimated seconds per stage over every call, before
    /// normalization: `[predict, loop, sc, train, history]`.
    fn stage_s(&self) -> [f64; 5] {
        [
            self.cond.scale_s(self.predict_ns),
            self.cond.scale_s(self.loop_ns),
            self.cond.scale_s(self.sc_ns),
            self.cond.scale_s(self.train_ns),
            self.cond.scale_s(self.history_cond_ns) + self.uncond.scale_s(self.history_uncond_ns),
        ]
    }
}

/// `process` and `finish` times of one hierarchical-predictor cell.
#[derive(Debug, Clone, Copy, Default)]
pub struct LlbpTrace {
    /// Conditional records.
    pub cond: Sampler,
    /// Unconditional records.
    pub uncond: Sampler,
    /// `process` on sampled conditional records.
    pub cond_ns: u64,
    /// `process` on sampled unconditional records.
    pub uncond_ns: u64,
    /// `finish`, timed exactly.
    pub finish_ns: u64,
}

/// `next_branch` times of one streamed workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamTrace {
    /// Every `next_branch` call.
    pub calls: Sampler,
    /// Time of the sampled calls.
    pub ns: u64,
}

/// Time from the end of a sampled `process` call to the start of the next
/// one: the runner's own work on one record (replay or streaming, the
/// shadow bimodal, interval bookkeeping).
#[derive(Debug, Clone, Copy, Default)]
pub struct GapTrace {
    /// Gaps timed.
    pub timed: u64,
    /// Their total time.
    pub ns: u64,
}

/// Everything the wrappers and the benchmark's job code recorded about one
/// cell.
#[derive(Debug, Clone, Default)]
pub struct CellSpans {
    /// The worker thread that ran the cell.
    pub thread: Option<ThreadId>,
    /// The factory was called.
    pub start: Option<Instant>,
    /// The factory returned.
    pub created: Option<Instant>,
    /// The first `process` call began.
    pub first_process: Option<Instant>,
    /// `finish` returned.
    pub finished: Option<Instant>,
    /// The cell's last span ended (`finish`, or the analysis extraction).
    pub end: Option<Instant>,
    /// Factory time spent building the design, excluding oracle training.
    pub construct_ns: u64,
    /// Factory time spent in `bench::opt_w_oracle`.
    pub oracle_ns: u64,
    /// Time extracting the context analysis from the finished run.
    pub extract_ns: u64,
    /// TAGE-SC-L stages, for cells driven through the staged API.
    pub tsl: Option<TslTrace>,
    /// Hierarchical-predictor calls, for LLBP-family cells.
    pub llbp: Option<LlbpTrace>,
    /// Streamed workload calls, for cells that stream.
    pub stream: Option<StreamTrace>,
    /// Runner gaps between `process` calls.
    pub gap: GapTrace,
}

/// A cell's time from its first `process` call to the end of `finish`,
/// split over the layers that ran in it. The sampled estimates are scaled
/// by one factor so that the per-branch layers and the runner's gaps add
/// up to the measured time: a timed call runs without overlapping its
/// neighbours, so raw samples overstate every layer alike.
#[derive(Debug, Clone, Copy, Default)]
pub struct CellSplit {
    /// Exact: first `process` to the end of `finish`.
    pub cell_s: f64,
    /// TAGE-SC-L stages `[predict, loop, sc, train, history]`.
    pub tsl_stages_s: [f64; 5],
    /// Hierarchical predictor `process` on conditional records.
    pub llbp_cond_s: f64,
    /// Hierarchical predictor `process` on unconditional records.
    pub llbp_uncond_s: f64,
    /// `finish`, exact.
    pub finish_s: f64,
    /// The streamed workload's `next_branch`.
    pub stream_s: f64,
    /// Derived: `cell_s` less every predictor and stream layer.
    pub runner_self_s: f64,
    /// The normalization factor (measured time over raw samples).
    pub factor: f64,
}

impl CellSpans {
    /// Splits the cell's time over its layers; see [`CellSplit`].
    pub fn split(&self) -> CellSplit {
        let cell_s = between(self.first_process, self.finished);
        let stages = self.tsl.map_or([0.0; 5], |t| t.stage_s());
        let (cond, uncond, finish) = self.llbp.map_or((0.0, 0.0, 0.0), |l| {
            (
                l.cond.scale_s(l.cond_ns),
                l.uncond.scale_s(l.uncond_ns),
                l.finish_ns as f64 * 1e-9,
            )
        });
        let calls = self.tsl.map_or(0, |t| t.cond.calls + t.uncond.calls)
            + self.llbp.map_or(0, |l| l.cond.calls + l.uncond.calls);
        let gap = scale_s(self.gap.ns, self.gap.timed, calls);
        let stream = self.stream.map_or(0.0, |s| s.calls.scale_s(s.ns));
        let predictor: f64 = stages.iter().sum::<f64>() + cond + uncond;
        let raw = predictor + gap;
        let factor = if raw > 0.0 {
            (cell_s - finish).max(0.0) / raw
        } else {
            1.0
        };
        CellSplit {
            cell_s,
            tsl_stages_s: stages.map(|s| s * factor),
            llbp_cond_s: cond * factor,
            llbp_uncond_s: uncond * factor,
            finish_s: finish,
            stream_s: stream * factor,
            runner_self_s: cell_s - finish - (predictor + stream) * factor,
            factor,
        }
    }
}

/// A cell's spans, shared between its wrappers and the benchmark.
pub type Slot = Arc<Mutex<CellSpans>>;

/// Runs `f` on the slot's spans. A panic elsewhere in the cell cannot
/// leave the spans half-written in a way that matters: a panicking cell
/// fails the run, and its spans are never read.
pub fn with_spans<R>(slot: &Slot, f: impl FnOnce(&mut CellSpans) -> R) -> R {
    f(&mut slot.lock().unwrap_or_else(PoisonError::into_inner))
}

/// Times a predictor factory: `build` returns the wrapped design and the
/// nanoseconds it spent training an oracle, which are booked apart from
/// construction.
pub fn timed_factory(
    slot: &Slot,
    build: impl FnOnce() -> (Box<dyn SimPredictor>, u64),
) -> Box<dyn SimPredictor> {
    let start = Instant::now();
    let (predictor, oracle_ns) = build();
    let created = Instant::now();
    with_spans(slot, |s| {
        s.thread = Some(std::thread::current().id());
        s.start = Some(start);
        s.created = Some(created);
        s.oracle_ns = oracle_ns;
        s.construct_ns = nanos(created - start).saturating_sub(oracle_ns);
    });
    predictor
}

/// Cell-level span bookkeeping every wrapper carries.
struct CellClock {
    slot: Slot,
    first_process: Option<Instant>,
    /// When the last sampled call ended, until the next call starts.
    sampled_end: Option<Instant>,
    gap: GapTrace,
}

impl CellClock {
    fn new(slot: Slot) -> Self {
        CellClock {
            slot,
            first_process: None,
            sampled_end: None,
            gap: GapTrace::default(),
        }
    }

    /// At the start of every `process` call.
    #[inline]
    fn on_process(&mut self) {
        if let Some(end) = self.sampled_end.take() {
            self.gap.ns += nanos(end.elapsed());
            self.gap.timed += 1;
        } else if self.first_process.is_none() {
            self.first_process = Some(Instant::now());
        }
    }

    /// At the end of every `process` call.
    #[inline]
    fn after(&mut self, laps: Laps) {
        self.sampled_end = laps.0;
    }

    /// Publishes the cell spans once `finish` has returned.
    fn finished(&self, record: impl FnOnce(&mut CellSpans)) {
        let now = Instant::now();
        with_spans(&self.slot, |s| {
            s.first_process = self.first_process;
            s.finished = Some(now);
            s.end = Some(now);
            s.gap = self.gap;
            record(s);
        });
    }
}

const PREDICT: usize = 0;
const LOOP: usize = 1;
const SC: usize = 2;
const TRAIN: usize = 3;
const HISTORY_COND: usize = 4;
const HISTORY_UNCOND: usize = 5;

/// A TAGE-SC-L driven through its staged API (`tage_info`, `loop_info`,
/// `sc_eval` + `combine`, `train`, `update_history`) in the order
/// `TageScl::process` calls them, with each stage timed on sampled
/// branches. Its results equal `TageScl::process` exactly.
pub struct StagedTsl {
    tsl: TageScl,
    clock: CellClock,
    cond: Sampler,
    uncond: Sampler,
    ns: [u64; 6],
}

impl StagedTsl {
    /// Wraps `tsl`, publishing its spans to `slot` on `finish`.
    pub fn new(tsl: TageScl, slot: Slot) -> Self {
        StagedTsl {
            tsl,
            clock: CellClock::new(slot),
            cond: Sampler::default(),
            uncond: Sampler::default(),
            ns: [0; 6],
        }
    }
}

impl DirectionPredictor for StagedTsl {
    fn process(&mut self, input: PredictInput<'_>) -> Update {
        self.clock.on_process();
        let rec: &BranchRecord = input.record;
        if !rec.kind.is_conditional() {
            let mut laps = Laps::start(self.uncond.tick());
            self.tsl.update_history(rec);
            laps.lap(&mut self.ns[HISTORY_UNCOND]);
            self.clock.after(laps);
            return Update::unconditional();
        }
        let mut laps = Laps::start(self.cond.tick());
        let tage = self.tsl.tage_info(rec.pc);
        laps.lap(&mut self.ns[PREDICT]);
        let loop_info = self.tsl.loop_info(rec.pc);
        laps.lap(&mut self.ns[LOOP]);
        let sc = self
            .tsl
            .sc_eval(rec.pc, tage.pred, TageScl::input_confidence(&tage));
        let pred = TageScl::combine(tage.pred, loop_info, self.tsl.loop_enabled(), sc);
        laps.lap(&mut self.ns[SC]);
        self.tsl.train(
            rec.pc,
            rec.taken,
            &TslInfo {
                tage,
                loop_info,
                sc,
                pred,
            },
        );
        laps.lap(&mut self.ns[TRAIN]);
        self.tsl.update_history(rec);
        laps.lap(&mut self.ns[HISTORY_COND]);
        self.clock.after(laps);
        Update::predicted(pred)
    }

    fn name(&self) -> String {
        self.tsl.name()
    }

    fn storage_bits(&self) -> u64 {
        self.tsl.storage_bits()
    }
}

impl SimPredictor for StagedTsl {
    fn finish(&mut self) {
        let trace = TslTrace {
            cond: self.cond,
            uncond: self.uncond,
            predict_ns: self.ns[PREDICT],
            loop_ns: self.ns[LOOP],
            sc_ns: self.ns[SC],
            train_ns: self.ns[TRAIN],
            history_cond_ns: self.ns[HISTORY_COND],
            history_uncond_ns: self.ns[HISTORY_UNCOND],
            population: self.tsl.tage().population() as u64,
        };
        self.clock.finished(|s| s.tsl = Some(trace));
    }
}

/// Any design, with `process` timed on sampled calls split by record kind
/// and `finish` timed exactly. Observation passes through unchanged.
pub struct TimedPredictor {
    inner: Box<dyn SimPredictor>,
    clock: CellClock,
    trace: LlbpTrace,
}

impl TimedPredictor {
    /// Wraps `inner`, publishing its spans to `slot` on `finish`.
    pub fn new(inner: Box<dyn SimPredictor>, slot: Slot) -> Self {
        TimedPredictor {
            inner,
            clock: CellClock::new(slot),
            trace: LlbpTrace::default(),
        }
    }
}

impl DirectionPredictor for TimedPredictor {
    fn process(&mut self, input: PredictInput<'_>) -> Update {
        self.clock.on_process();
        let t = &mut self.trace;
        let (sampler, acc) = if input.record.kind.is_conditional() {
            (&mut t.cond, &mut t.cond_ns)
        } else {
            (&mut t.uncond, &mut t.uncond_ns)
        };
        let mut laps = Laps::start(sampler.tick());
        let update = self.inner.process(input);
        laps.lap(acc);
        self.clock.after(laps);
        update
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn storage_bits(&self) -> u64 {
        self.inner.storage_bits()
    }
}

impl SimPredictor for TimedPredictor {
    fn finish(&mut self) {
        let started = Instant::now();
        self.inner.finish();
        self.trace.finish_ns = nanos(started.elapsed());
        let trace = self.trace;
        self.clock.finished(|s| s.llbp = Some(trace));
    }

    fn observe(&self) -> Observation<'_> {
        self.inner.observe()
    }
}

/// A branch stream with `next_branch` timed on sampled calls.
pub struct TimedStream<S> {
    inner: S,
    trace: StreamTrace,
}

impl<S: BranchStream> TimedStream<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        TimedStream {
            inner,
            trace: StreamTrace::default(),
        }
    }

    /// What was recorded so far.
    pub fn trace(&self) -> StreamTrace {
        self.trace
    }
}

impl<S: BranchStream> BranchStream for TimedStream<S> {
    fn next_branch(&mut self) -> Option<BranchRecord> {
        let mut laps = Laps::start(self.trace.calls.tick());
        let record = self.inner.next_branch();
        laps.lap(&mut self.trace.ns);
        record
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_times_one_call_in_n_and_scales_to_all() {
        let mut s = Sampler::default();
        let timed = (0..SAMPLE_EVERY * 4).filter(|_| s.tick()).count() as u64;
        assert_eq!((s.calls, s.sampled, timed), (SAMPLE_EVERY * 4, 4, 4));
        let ns = 4 * clock_overhead_ns() + 4_000;
        assert!((s.scale_s(ns) - SAMPLE_EVERY as f64 * 4_000e-9).abs() < 1e-15);
        assert_eq!(s.scale_s(clock_overhead_ns()), 0.0, "never below zero");
        assert_eq!(Sampler::default().scale_s(5), 0.0);
    }
}
