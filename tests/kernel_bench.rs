//! Manual micro-bench harness for the per-branch kernel, plus accuracy
//! pinning for the optimized hot path.
//!
//! Style follows `crates/tage/tests/randomized.rs`: deterministic seeded
//! inputs, offline, no external harness. The timing tests measure the two
//! kernels the hot-path work targets — `TageScl` predict/update and
//! `PatternSet::find_longest` — [`REPEATS`] times each and report the
//! median nanoseconds per call with its min and median absolute deviation
//! (MAD) on stderr (`cargo test --release --test kernel_bench --
//! --nocapture`) and, with `LLBPX_TELEMETRY=1`, into the local sink
//! `BENCH_kernel_bench.json`. Assertions stay loose on absolute speed (CI
//! machines vary); the pinned-accuracy test is exact.

use std::time::Instant;

use bpsim::runner::Simulation;
use llbpx::{LengthSet, PatternSet};
use tage::{DirectionPredictor, PredictInput, TageScl, TslConfig, NUM_TABLES};
use telemetry::{Json, SplitMix64};
use traces::BranchRecord;

/// Branches per timing batch — large enough that per-batch overhead
/// (clock reads, loop setup) vanishes into the per-branch cost.
const BATCH: usize = 200_000;

/// Timed passes per kernel. A single pass is not evidence: identical runs
/// of one pass spread by a third on a shared host.
const REPEATS: usize = 7;

/// Nanoseconds per call over [`REPEATS`] timed passes.
struct Timing {
    median: f64,
    min: f64,
    /// Median absolute deviation from the median.
    mad: f64,
}

fn median_of(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Times `pass` (which makes `calls` kernel calls) [`REPEATS`] times.
fn time_repeated(calls: usize, mut pass: impl FnMut()) -> Timing {
    let mut ns: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let start = Instant::now();
            pass();
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    let median = median_of(&mut ns);
    let min = ns[0];
    let mut deviations: Vec<f64> = ns.iter().map(|v| (v - median).abs()).collect();
    Timing { median, min, mad: median_of(&mut deviations) }
}

/// Reports one kernel's timing on stderr and, if configured, appends it
/// to the telemetry sink.
fn emit_kernel_ns(kernel: &str, calls: usize, t: &Timing) {
    eprintln!(
        "{kernel}: median {:.1} ns/call, min {:.1}, MAD {:.1} ({REPEATS} passes of {calls} calls)",
        t.median, t.min, t.mad
    );
    let Some(sink) = telemetry::record::sink_from_env("kernel_bench") else { return };
    let line = Json::obj()
        .set("schema", telemetry::record::SCHEMA)
        .set("bench", "kernel_bench")
        .set("kernel", kernel)
        .set("calls", calls as u64)
        .set("repeats", REPEATS as u64)
        .set("ns_per_call", t.median)
        .set("min_ns_per_call", t.min)
        .set("mad_ns_per_call", t.mad);
    telemetry::record::append_line(&sink, &line).expect("telemetry sink is writable");
    eprintln!("telemetry: {kernel} appended to {}", sink.display());
}

/// A deterministic conditional-branch batch: a few hundred sites with
/// history-correlated directions, so TAGE exercises allocation, tagged
/// hits and the bimodal fallback rather than a single saturated pattern.
fn branch_batch(seed: u64) -> Vec<BranchRecord> {
    let mut rng = SplitMix64::new(seed);
    let sites: Vec<u64> = (0..512).map(|i| 0x40_0000 + i * 4).collect();
    let mut history = 0u64;
    (0..BATCH)
        .map(|_| {
            let pc = sites[rng.next_below(sites.len() as u64) as usize];
            // Direction correlates with recent global history plus noise:
            // predictable enough to populate tagged tables, noisy enough
            // to keep training active.
            let taken = (history ^ pc).count_ones() % 3 != 0 || rng.next_bool(0.1);
            history = (history << 1) | taken as u64;
            BranchRecord::cond(pc, pc + 0x100, taken, 2)
        })
        .collect()
}

#[test]
fn tage_process_kernel_latency() {
    let records = branch_batch(0x6b65_726e);
    let mut tsl = TageScl::new(TslConfig::kilobytes(64));
    // Warm pass: populate the tables so the timed pass measures the
    // steady-state kernel, not cold allocation.
    for rec in &records {
        tsl.process(PredictInput::new(rec));
    }
    let mut taken = 0u64;
    let t = time_repeated(records.len(), || {
        for rec in &records {
            taken += tsl
                .process(PredictInput::new(rec))
                .pred
                .expect("conditional branches always predict") as u64;
        }
    });
    assert!(taken > 0, "the batch is not degenerate");
    assert!(t.min > 0.0, "the kernel takes measurable time");
    // Guard against catastrophic regression only — the baseline kernel
    // runs in well under a microsecond per branch on any machine.
    assert!(t.median < 100_000.0, "predict/update took {:.0} ns/branch", t.median);
    emit_kernel_ns("tage::process", records.len(), &t);
}

#[test]
fn pattern_set_find_longest_latency() {
    let mut rng = SplitMix64::new(0x7061_7474);
    let allowed = LengthSet::llbp_default();
    // A full hardware-shaped set: 16 patterns over the supported lengths.
    let mut set = PatternSet::new();
    let slots: Vec<u8> = allowed.slots().to_vec();
    for i in 0..16u32 {
        let len = slots[(i as usize) % slots.len()];
        set.allocate(0x1000 + i, len, i % 2 == 0, Some(16), &allowed);
    }
    // Per-length tag vectors: a mix of hits and misses, like live lookups.
    let lookups: Vec<Vec<u32>> = (0..256)
        .map(|_| {
            (0..NUM_TABLES)
                .map(|_| {
                    if rng.next_bool(0.25) {
                        0x1000 + rng.next_below(16) as u32
                    } else {
                        rng.next_u64() as u32
                    }
                })
                .collect()
        })
        .collect();
    let rounds = BATCH / lookups.len();
    let calls = rounds * lookups.len();
    let mut hits = 0u64;
    let t = time_repeated(calls, || {
        for _ in 0..rounds {
            for tags in &lookups {
                hits += set.find_longest(tags, &allowed).is_some() as u64;
            }
        }
    });
    assert!(hits > 0, "some lookups match");
    assert!(t.median < 100_000.0, "find_longest took {:.0} ns/call", t.median);
    emit_kernel_ns("pattern_set::find_longest", calls, &t);
}

/// Pins exact accuracy stats on two presets: any later change to the hot
/// path must stay bit-identical to the implementation these counts were
/// recorded from (itself verified bit-identical to the pre-optimization
/// kernel over the full fig01 protocol).
#[test]
fn accuracy_stats_are_pinned_on_two_presets() {
    let sim = Simulation { warmup_instructions: 300_000, measure_instructions: 600_000 };
    // (preset, instructions, cond_branches, mispredicts)
    let pins = [
        ("NodeApp", PIN_NODEAPP),
        ("TPCC", PIN_TPCC),
    ];
    for (name, (instructions, cond_branches, mispredicts)) in pins {
        let spec = workloads::presets::by_name(name).expect("preset exists");
        let mut tsl = TageScl::new(TslConfig::kilobytes(64));
        let r = sim.run(&mut tsl, &spec);
        assert_eq!(
            (r.instructions, r.cond_branches, r.mispredicts),
            (instructions, cond_branches, mispredicts),
            "{name}: accuracy drifted from the pinned pre-optimization stats"
        );
    }
}

const PIN_NODEAPP: (u64, u64, u64) = (600_006, 61_844, 2_939);
const PIN_TPCC: (u64, u64, u64) = (600_000, 61_594, 2_605);
