//! End-to-end telemetry: run records from the library API and from a real
//! experiment binary with `--json`.
//!
//! This is the acceptance test for the telemetry layer: a bench binary run
//! with `--json <path>` must append a valid record line carrying the
//! protocol/config, the engine bookkeeping (threads, trace cache, total
//! wall time), the full second-level counters, at least two interval
//! samples, and the predictor profile scopes with nonzero timings. (Runs
//! replaying a cached trace spend no time in the workload generator, so
//! generator scopes are only asserted on the library's streaming path.)

use std::path::PathBuf;
use std::process::Command;

use bpsim::runner::Simulation;
use llbpx::{Llbp, LlbpxConfig};
use telemetry::Json;
use workloads::WorkloadSpec;

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("llbpx-telemetry-{tag}-{}.json", std::process::id()))
}

#[test]
fn library_run_records_carry_every_section() {
    let sim = Simulation { warmup_instructions: 50_000, measure_instructions: 200_000 };
    let spec = WorkloadSpec::new("tiny", 11).with_request_types(64).with_handlers(8);
    let mut p = Llbp::new_x(LlbpxConfig::paper_baseline());
    let mut result = sim.run(&mut p, &spec);

    let json = Json::parse(&result.take_record(&sim).to_json().to_string()).expect("round-trips");
    assert_eq!(json.get("predictor").unwrap().as_str(), Some("LLBP-X"));
    assert_eq!(json.get("warmup_instructions").unwrap().as_i64(), Some(50_000));
    let counters = json.get("counters").expect("counters section");
    for key in ["cond_branches", "llbp_provided", "prefetches_issued", "allocations"] {
        assert!(counters.get(key).is_some(), "counter {key} missing");
    }
    assert!(json.get("intervals").unwrap().as_arr().unwrap().len() >= 2);
    let profile = json.get("profile").unwrap().as_arr().unwrap();
    let nonzero = profile
        .iter()
        .filter(|s| {
            s.get("nanos").and_then(Json::as_i64).unwrap_or(0) > 0
                && s.get("calls").and_then(Json::as_i64).unwrap_or(0) > 0
        })
        .count();
    assert!(nonzero >= 3, "expected >=3 timed scopes, profile: {profile:?}");
}

#[test]
fn bench_binary_emits_a_valid_record_with_json_flag() {
    let sink = tmp_path("fig01");
    let _ = std::fs::remove_file(&sink);

    let output = Command::new(env!("CARGO_BIN_EXE_fig01"))
        .arg("--json")
        .arg(&sink)
        .env("REPRO_WORKLOADS", "NodeApp")
        .env("REPRO_WARMUP", "50000")
        .env("REPRO_INSTRUCTIONS", "200000")
        .output()
        .expect("fig01 runs");
    assert!(output.status.success(), "fig01 failed: {}", String::from_utf8_lossy(&output.stderr));

    let text = std::fs::read_to_string(&sink).expect("sink was written");
    let _ = std::fs::remove_file(&sink);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1, "one invocation appends one line");
    let line = Json::parse(lines[0]).expect("the record line is valid JSON");

    assert_eq!(line.get("schema").unwrap().as_str(), Some("llbpx-telemetry/4"));
    assert_eq!(line.get("bench").unwrap().as_str(), Some("fig01"));

    // Engine bookkeeping on the record line.
    assert!(line.get("total_wall_seconds").unwrap().as_f64().unwrap() > 0.0);
    assert!(line.get("threads").unwrap().as_i64().unwrap() >= 1);
    let cache = line.get("trace_cache").expect("trace_cache section");
    let cached = cache.get("specs_cached").unwrap().as_i64().unwrap();
    let streamed = cache.get("specs_streamed").unwrap().as_i64().unwrap();
    assert_eq!(cached + streamed, 1, "fig01 on one workload touches one spec");

    let runs = line.get("runs").unwrap().as_arr().expect("runs array");
    assert_eq!(runs.len(), 2, "fig01 runs two designs on one workload");

    for run in runs {
        // Config / protocol.
        assert_eq!(run.get("workload").unwrap().as_str(), Some("NodeApp"));
        assert_eq!(run.get("warmup_instructions").unwrap().as_i64(), Some(50_000));
        assert_eq!(run.get("measure_instructions").unwrap().as_i64(), Some(200_000));
        assert!(run.get("predictor").unwrap().as_str().unwrap().contains("TSL"));
        assert_eq!(run.get("status").unwrap().as_str(), Some("ok"), "v2 status field");
        assert!(
            matches!(run.get("trace_cache").unwrap().as_str(), Some("streamed" | "materialized")),
            "v2 trace_cache attribution"
        );
        assert!(run.get("mpki").unwrap().as_f64().unwrap() > 0.0);
        assert!(run.get("cpi").unwrap().as_f64().unwrap() > 0.0);
        assert!(run.get("storage_bits").unwrap().as_i64().unwrap() > 0);

        // Counters section exists (empty object for plain TSL runs, which
        // have no second level).
        assert!(run.get("counters").is_some());

        // Interval time-series: default width is an eighth of the budget.
        let intervals = run.get("intervals").unwrap().as_arr().unwrap();
        assert!(intervals.len() >= 2, "got {} intervals", intervals.len());
        let offsets: Vec<i64> =
            intervals.iter().map(|s| s.get("instructions").unwrap().as_i64().unwrap()).collect();
        assert!(offsets.windows(2).all(|w| w[0] < w[1]), "non-monotone {offsets:?}");

        // Scope profile: the predictor scopes must always be timed. (With
        // both designs sharing NodeApp's trace, the replayed runs never
        // enter the workload generator, so its scopes live in the
        // coordinator's `workload::materialize`, not here.)
        let profile = run.get("profile").unwrap().as_arr().unwrap();
        let timed: Vec<&str> = profile
            .iter()
            .filter(|s| s.get("nanos").and_then(Json::as_i64).unwrap_or(0) > 0)
            .map(|s| s.get("scope").unwrap().as_str().unwrap())
            .collect();
        assert!(timed.len() >= 2, "expected >=2 timed scopes, got {timed:?}");
        for scope in ["tage::predict", "tage::update"] {
            assert!(timed.contains(&scope), "{scope} missing from {timed:?}");
        }
    }
}

#[test]
fn env_var_sink_appends_across_invocations() {
    let sink = tmp_path("env");
    let _ = std::fs::remove_file(&sink);

    for _ in 0..2 {
        let output = Command::new(env!("CARGO_BIN_EXE_table2"))
            .env("LLBPX_TELEMETRY", &sink)
            .output()
            .expect("table2 runs");
        assert!(output.status.success());
    }

    let text = std::fs::read_to_string(&sink).expect("sink was written");
    let _ = std::fs::remove_file(&sink);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "two invocations append two lines");
    for l in lines {
        let j = Json::parse(l).expect("valid JSON line");
        assert_eq!(j.get("bench").unwrap().as_str(), Some("table2"));
        // table2 runs no simulations; it records the storage budgets.
        assert!(j.get("storage_bits").unwrap().get("LLBP-X").unwrap().as_i64().unwrap() > 0);
        assert_eq!(j.get("runs").unwrap().as_arr().unwrap().len(), 0);
    }
}
