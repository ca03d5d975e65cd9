//! Exact counter pins for the paper's own predictors.
//!
//! `tests/kernel_bench.rs` pins the TAGE-SC-L baseline; this file pins
//! LLBP, LLBP-X and LLBP-X Opt-W on two presets at a reduced budget, so
//! any engine, runner or kernel change that moves a single counter of the
//! paper's designs fails here instead of silently shifting a figure. The
//! cells run through the experiment engine on two workers with the shared
//! trace cache on, and the Opt-W factory trains its oracle on the worker
//! exactly as fig12 does (`bench::opt_w_oracle` over the same protocol).
//!
//! The presets are chosen so every pinned counter moves: Kafka's LLBP-X
//! makes depth transitions (so Opt-W differs from LLBP-X there) and
//! Spring has late prefetches.

use bpsim::exec::{run_matrix_with, MatrixJob};
use bpsim::runner::Simulation;
use bpsim::RunResult;

/// The pinned counters of one run, in this order: mispredicts,
/// llbp_provided, llbp_useful, llbp_harmful, prefetch_on_time,
/// prefetch_late, prefetch_unused, depth_transitions, ctt_accesses.
type Pin = [u64; 9];

fn counters(r: &RunResult) -> Pin {
    let s = r.llbp.as_ref().expect("hierarchical designs report second-level stats");
    [
        r.mispredicts,
        s.llbp_provided,
        s.llbp_useful,
        s.llbp_harmful,
        s.prefetch_on_time,
        s.prefetch_late,
        s.prefetch_unused,
        s.depth_transitions,
        s.ctt_accesses,
    ]
}

/// (preset, [LLBP, LLBP-X, LLBP-X Opt-W]).
const PINS: [(&str, [Pin; 3]); 2] = [
    (
        "Kafka",
        [
            [542, 8234, 8, 10, 13, 0, 3, 0, 0],
            [525, 6847, 10, 5, 13, 0, 3, 4, 39725],
            [521, 7699, 11, 6, 13, 0, 3, 0, 39725],
        ],
    ),
    (
        "Spring",
        [
            [3596, 10921, 478, 64, 1949, 2, 435, 0, 0],
            [3607, 12311, 578, 96, 2467, 2, 463, 0, 39936],
            [3607, 12311, 578, 96, 2467, 2, 463, 0, 39936],
        ],
    ),
];

#[test]
fn paper_predictor_counters_are_pinned_on_two_presets() {
    let sim = Simulation { warmup_instructions: 500_000, measure_instructions: 1_000_000 };
    let mut jobs = Vec::new();
    for (name, _) in PINS {
        let spec = workloads::presets::by_name(name).expect("preset exists");
        jobs.push(MatrixJob::new(bench::llbp, &spec));
        jobs.push(MatrixJob::new(bench::llbpx, &spec));
        let oracle_spec = spec.clone();
        jobs.push(MatrixJob::new(
            move || bench::llbpx_opt_w(bench::opt_w_oracle(&oracle_spec, &sim)),
            &spec,
        ));
    }
    let report = run_matrix_with(&sim, jobs, 2, u64::MAX);
    let want = PINS.iter().flat_map(|(name, pins)| pins.iter().map(move |pin| (name, pin)));
    let mut drift = Vec::new();
    for (output, (name, want)) in report.outputs.iter().zip(want) {
        let run = &output.as_ref().expect("no cell fails").result;
        let got = counters(run);
        if got != *want {
            drift.push(format!("{name} {}: got {got:?}, pinned {want:?}", run.name));
        }
    }
    assert!(drift.is_empty(), "counters drifted from the pins:\n{}", drift.join("\n"));
}
