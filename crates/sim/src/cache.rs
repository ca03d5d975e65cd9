//! The shared trace cache behind the run matrix.
//!
//! Before any cell runs, [`TraceCache::plan`] decides per distinct workload
//! spec, in job order, whether its trace is materialized or streamed: a
//! spec is materialized when two or more cells share it and its estimated
//! size ([`estimated_records`]) fits what is left of the
//! `LLBPX_TRACE_CACHE_MB` cap, which then reserves that size. Every other
//! spec streams from the generator, which replays the same records in the
//! same order, so the decision never changes a simulated result.
//!
//! A planned trace is generated lazily by the first cell that claims it,
//! while the other cells on that workload wait; that overlap of generation
//! with simulation on the other workers is where the cache earns its keep.
//! A trace that grows past its reservation is dropped and its cells
//! stream; a trace that fails validation fails each of its cells with the
//! structured [`SimError`]. The last sharer's claim releases the cache's
//! hold on the trace, so its memory goes when that cell finishes.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use traces::{BranchRecord, BranchStream, StreamValidator};
use workloads::{ServerWorkload, WorkloadSpec};

use crate::error::SimError;

const RECORD_BYTES: u64 = std::mem::size_of::<BranchRecord>() as u64;

/// How the shared trace cache behaved for one matrix.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TraceCacheStats {
    /// Distinct workload specs materialized into shared storage.
    pub specs_cached: usize,
    /// Distinct specs that streamed (single-job specs, specs that did not
    /// fit the cap, and traces that overran their reservation).
    pub specs_streamed: usize,
    /// Total records materialized across all cached traces.
    pub cached_records: u64,
    /// Total bytes materialized across all cached traces.
    pub cached_bytes: u64,
    /// Wall-clock seconds spent generating shared traces.
    pub generation_seconds: f64,
}

/// What one cell got from the cache.
#[derive(Debug, Clone)]
pub enum TraceLease {
    /// A shared materialized trace to replay read-only.
    Materialized(Arc<Vec<BranchRecord>>),
    /// Stream from the generator.
    Streamed,
}

/// The state of one planned trace.
enum Slot {
    /// Not claimed yet; holds its reservation in bytes.
    Planned(u64),
    /// The first claimant is generating it; later claimants wait.
    Generating,
    /// Generated and validated.
    Ready(Arc<Vec<BranchRecord>>),
    /// Every sharer has claimed it; the cache holds nothing any more.
    Released,
    /// It grew past its reservation: its cells stream.
    Overran,
    /// Generation failed: its cells fail with this error.
    Failed(SimError),
}

struct Entry {
    spec: WorkloadSpec,
    /// Cells that have not claimed the trace yet.
    unclaimed: usize,
    slot: Slot,
}

struct Inner {
    entries: Vec<Entry>,
    stats: TraceCacheStats,
}

/// The shared, lazily-filled trace cache for one matrix.
pub struct TraceCache {
    /// Instructions each trace must cover (warmup + measurement).
    budget: u64,
    inner: Mutex<Inner>,
    ready: Condvar,
}

impl TraceCache {
    /// Plans the cache for a matrix whose cells run on `specs` (one per
    /// job, in job order), holding at most `cap_bytes` of traces that each
    /// cover `budget` instructions.
    pub fn plan<'s>(
        specs: impl IntoIterator<Item = &'s WorkloadSpec>,
        cap_bytes: u64,
        budget: u64,
    ) -> Self {
        let specs: Vec<&WorkloadSpec> = specs.into_iter().collect();
        let mut left = cap_bytes;
        let mut entries = Vec::new();
        let mut stats = TraceCacheStats::default();
        for (i, &spec) in specs.iter().enumerate() {
            if specs[..i].contains(&spec) {
                continue;
            }
            let sharers = specs[i..].iter().filter(|&&s| s == spec).count();
            let reserved = estimated_records(spec, budget) as u64 * RECORD_BYTES;
            if sharers >= 2 && reserved <= left {
                left -= reserved;
                entries.push(Entry {
                    spec: spec.clone(),
                    unclaimed: sharers,
                    slot: Slot::Planned(reserved),
                });
            } else {
                stats.specs_streamed += 1;
            }
        }
        TraceCache { budget, inner: Mutex::new(Inner { entries, stats }), ready: Condvar::new() }
    }

    /// Cache behavior so far.
    pub fn stats(&self) -> TraceCacheStats {
        self.lock().stats
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claims workload `spec`'s trace for one cell. The first claimant of
    /// a planned trace generates it; later claimants block until it is
    /// ready. An error means the trace failed validation, and every cell
    /// on the workload gets the same error.
    pub fn acquire(&self, spec: &WorkloadSpec) -> Result<TraceLease, SimError> {
        let mut inner = self.lock();
        let Some(i) = inner.entries.iter().position(|e| e.spec == *spec) else {
            return Ok(TraceLease::Streamed);
        };
        loop {
            match inner.entries[i].slot {
                Slot::Generating => {
                    inner = self.ready.wait(inner).unwrap_or_else(PoisonError::into_inner);
                }
                Slot::Planned(reserved) => {
                    inner.entries[i].slot = Slot::Generating;
                    drop(inner);
                    let started = Instant::now();
                    let generated = generate(spec, self.budget, reserved);
                    inner = self.lock();
                    inner.stats.generation_seconds += started.elapsed().as_secs_f64();
                    inner.entries[i].slot = match generated {
                        Ok(Some(trace)) => {
                            inner.stats.specs_cached += 1;
                            inner.stats.cached_records += trace.len() as u64;
                            inner.stats.cached_bytes += trace.len() as u64 * RECORD_BYTES;
                            Slot::Ready(trace)
                        }
                        Ok(None) => {
                            inner.stats.specs_streamed += 1;
                            Slot::Overran
                        }
                        Err(e) => Slot::Failed(e),
                    };
                    self.ready.notify_all();
                }
                _ => break,
            }
        }
        let entry = &mut inner.entries[i];
        entry.unclaimed = entry.unclaimed.saturating_sub(1);
        let lease = match &entry.slot {
            Slot::Ready(trace) => Ok(TraceLease::Materialized(Arc::clone(trace))),
            Slot::Failed(e) => Err(e.clone()),
            _ => Ok(TraceLease::Streamed),
        };
        if entry.unclaimed == 0 && matches!(entry.slot, Slot::Ready(_)) {
            entry.slot = Slot::Released;
        }
        lease
    }
}

/// Generates and validates `spec`'s trace within `cap_bytes`.
fn generate(
    spec: &WorkloadSpec,
    budget: u64,
    cap_bytes: u64,
) -> Result<Option<Arc<Vec<BranchRecord>>>, SimError> {
    let mut stream = ServerWorkload::try_new(spec)
        .map_err(|reason| SimError::InvalidSpec { workload: spec.name.clone(), reason })?;
    let hint = estimated_records(spec, budget);
    materialize_stream(&spec.name, &mut stream, budget, cap_bytes, hint)
}

/// Materializes `stream` into shared read-only storage covering at least
/// `instructions`, validating every record structurally on the way in.
///
/// Returns `Ok(None)` when materializing would exceed `cap_bytes` or the
/// stream ends early (callers fall back to per-job streaming), and an
/// error when the stream emits a structurally corrupt record — a corrupt
/// shared trace would poison every cell that replays it, so it is rejected
/// before any cell runs.
///
/// The trace is generated past the requested budget by twice the largest
/// record seen, which provably covers the runner's boundary overshoot (the
/// warmup and measurement loops each run their crossing record to
/// completion), so replaying the result is bit-identical to streaming the
/// generator — same records, same order, same stopping point.
///
/// The record buffer is allocated once up front (sized by `capacity_hint`,
/// clamped to the cap) and handed to the `Arc` by move. Growth
/// reallocations and the old `Vec → Arc<[_]>` slice conversion each copied
/// the whole trace through fresh pages — for the ~100 MB traces fig01
/// shares, the first-touch page faults cost multiples of the generation
/// arithmetic itself.
pub(crate) fn materialize_stream<S: BranchStream>(
    workload: &str,
    stream: &mut S,
    instructions: u64,
    cap_bytes: u64,
    capacity_hint: usize,
) -> Result<Option<Arc<Vec<BranchRecord>>>, SimError> {
    let _t = telemetry::scope("workload::materialize");
    let hint = (capacity_hint as u64).min(cap_bytes / RECORD_BYTES) as usize;
    let mut validator = StreamValidator::new();
    let mut records: Vec<BranchRecord> = Vec::with_capacity(hint);
    let mut generated = 0u64;
    let mut largest = 1u64;
    while generated < instructions.saturating_add(2 * largest) {
        if (records.len() as u64 + 1) * RECORD_BYTES > cap_bytes {
            return Ok(None);
        }
        let Some(rec) = stream.next_branch() else { return Ok(None) };
        validator
            .check(&rec)
            .map_err(|defect| SimError::Trace { workload: workload.to_owned(), defect })?;
        generated += rec.instructions();
        largest = largest.max(rec.instructions());
        records.push(rec);
    }
    Ok(Some(Arc::new(records)))
}

/// Expected record count for a trace covering `instructions` of `spec`:
/// each record covers its own instruction plus a uniform gap in
/// `gap_min..=gap_max`, so the mean spacing is `1 + (gap_min + gap_max)/2`.
/// A ~2% slack term absorbs sampling variance so the buffer almost never
/// regrows and a trace almost never overruns its reservation.
pub(crate) fn estimated_records(spec: &WorkloadSpec, instructions: u64) -> usize {
    let mean_gap = (u64::from(spec.gap_min) + u64::from(spec.gap_max)) / 2;
    let estimate = instructions / (1 + mean_gap).max(1);
    (estimate + estimate / 50 + 1024) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use traces::{FaultClass, FaultInjector};

    fn tiny_spec(name: &str, seed: u64) -> WorkloadSpec {
        WorkloadSpec::new(name, seed).with_request_types(64).with_handlers(8)
    }

    const BUDGET: u64 = 120_000;

    fn reservation(spec: &WorkloadSpec) -> u64 {
        estimated_records(spec, BUDGET) as u64 * RECORD_BYTES
    }

    #[test]
    fn shared_specs_materialize_once_and_hit_after() {
        let spec = tiny_spec("hit", 1);
        let cache = TraceCache::plan([&spec, &spec], u64::MAX, BUDGET);
        let a = cache.acquire(&spec).expect("a valid spec");
        let b = cache.acquire(&spec).expect("a valid spec");
        let (TraceLease::Materialized(ta), TraceLease::Materialized(tb)) = (&a, &b) else {
            panic!("both claims must be materialized");
        };
        assert!(Arc::ptr_eq(ta, tb), "one generation, shared storage");
        let stats = cache.stats();
        assert_eq!(stats.specs_cached, 1);
        assert_eq!(stats.specs_streamed, 0);
        assert!(stats.cached_records > 0);
    }

    #[test]
    fn the_last_claim_releases_the_trace() {
        let spec = tiny_spec("release", 2);
        let cache = TraceCache::plan([&spec, &spec], u64::MAX, BUDGET);
        let Ok(TraceLease::Materialized(first)) = cache.acquire(&spec) else {
            panic!("materialized");
        };
        assert_eq!(Arc::strong_count(&first), 2, "the cache holds it for the second sharer");
        let second = cache.acquire(&spec);
        assert_eq!(Arc::strong_count(&first), 2, "the two cells hold it, the cache does not");
        drop(second);
        assert_eq!(Arc::strong_count(&first), 1);
    }

    #[test]
    fn singletons_and_zero_cap_stream_undegraded() {
        let spec = tiny_spec("single", 2);
        let cache = TraceCache::plan([&spec], u64::MAX, BUDGET);
        assert!(matches!(cache.acquire(&spec), Ok(TraceLease::Streamed)));
        let zero = TraceCache::plan([&spec, &spec], 0, BUDGET);
        assert!(matches!(zero.acquire(&spec), Ok(TraceLease::Streamed)));
        assert_eq!(cache.stats().specs_streamed, 1);
        assert_eq!(zero.stats().specs_streamed, 1);
    }

    #[test]
    fn the_cap_is_reserved_in_job_order() {
        let a = tiny_spec("order-a", 3);
        let b = tiny_spec("order-b", 4);
        // Room for one reservation: the spec whose first job comes first
        // gets it, whichever cell claims first.
        let cap = reservation(&a).max(reservation(&b)) * 3 / 2;
        let cache = TraceCache::plan([&b, &a, &a, &b], cap, BUDGET);
        assert!(matches!(cache.acquire(&a), Ok(TraceLease::Streamed)));
        assert!(matches!(cache.acquire(&b), Ok(TraceLease::Materialized(_))));
        let stats = cache.stats();
        assert_eq!((stats.specs_cached, stats.specs_streamed), (1, 1));
    }

    #[test]
    fn failed_generation_fails_every_sharer() {
        let bad = WorkloadSpec::new("bad", 1).with_request_types(0);
        let cache = TraceCache::plan([&bad, &bad], u64::MAX, BUDGET);
        for _ in 0..2 {
            match cache.acquire(&bad) {
                Err(SimError::InvalidSpec { workload, .. }) => assert_eq!(workload, "bad"),
                other => panic!("expected InvalidSpec, got {:?}", other.map(|_| ())),
            }
        }
        assert_eq!(cache.stats().specs_cached, 0);
    }

    #[test]
    fn corrupt_streams_fail_materialization_with_a_trace_error() {
        let spec = tiny_spec("corrupt", 6);
        let mut faulty = FaultInjector::new(ServerWorkload::new(&spec), FaultClass::Corrupt, 3);
        let hint = estimated_records(&spec, BUDGET);
        match materialize_stream("corrupt", &mut faulty, BUDGET, u64::MAX, hint) {
            Err(SimError::Trace { workload, .. }) => assert_eq!(workload, "corrupt"),
            other => panic!("expected a trace error, got {:?}", other.map(|t| t.is_some())),
        }
    }
}
