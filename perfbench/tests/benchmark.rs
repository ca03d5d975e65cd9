//! Checks on the benchmark itself, on short traces: the timing wrappers
//! leave results unchanged, the staged TAGE-SC-L calls equal
//! `TageScl::process`, the +Inf-Patterns replay equals `analyze_contexts`,
//! seeds map as documented, each per-layer metric applies where its layer
//! runs, and `BENCHMARK.json` lists what the benchmark prints.

use bpsim::analysis::analyze_contexts;
use bpsim::Simulation;
use llbpx::Llbp;
use perfbench::counters::CellCounters;
use perfbench::metrics::{layer_metrics, END_TO_END, PER_LAYER};
use perfbench::probe::{Slot, StagedTsl, TimedStream};
use perfbench::workload::{
    analysis_config, extract_analysis, reseed, run_pass, run_traced_pass, Design, Workload,
    DEFAULT_SEED,
};
use tage::{DirectionPredictor, PredictInput, TageScl, TslConfig};
use telemetry::Json;
use traces::BranchStream;
use workloads::{ServerWorkload, WorkloadSpec};

fn tiny() -> Simulation {
    Simulation {
        warmup_instructions: 40_000,
        measure_instructions: 80_000,
    }
}

fn node_app() -> WorkloadSpec {
    Workload::IdealizedAnalysis.specs(DEFAULT_SEED).remove(0)
}

#[test]
fn timing_wrappers_do_not_change_results() {
    let (sim, spec) = (tiny(), node_app());
    for design in [
        Design::Tsl64,
        Design::TslInf,
        Design::Llbp,
        Design::Llbpx,
        Design::InfPatterns(8),
    ] {
        let mut plain = design.construct();
        let want = sim.run_stream(plain.as_mut(), &mut ServerWorkload::new(&spec), &spec.name);

        let slot = Slot::default();
        let mut traced = design.traced(&spec, &sim, &slot);
        let mut stream = TimedStream::new(ServerWorkload::new(&spec));
        let got = sim.run_stream(traced.as_mut(), &mut stream, &spec.name);

        let label = design.label();
        assert_eq!(
            CellCounters::from_run(&label, &got),
            CellCounters::from_run(&label, &want),
            "{label}"
        );
        let spans = slot.lock().expect("no panic held the slot").clone();
        assert!(
            spans.first_process.is_some() && spans.finished.is_some(),
            "{label}: spans"
        );
        assert!(
            stream.trace().calls.calls > 0,
            "{label}: the stream was counted"
        );
        let split = spans.split();
        assert!(
            split.cell_s > 0.0 && split.factor > 0.0,
            "{label}: {split:?}"
        );
    }
}

#[test]
fn staged_tsl_equals_process() {
    for cfg in [
        TslConfig::kilobytes(64),
        TslConfig::kilobytes(512),
        TslConfig::infinite(),
    ] {
        let mut fused = TageScl::new(cfg.clone());
        let mut staged = StagedTsl::new(TageScl::new(cfg.clone()), Slot::default());
        let mut stream = ServerWorkload::new(&node_app());
        for i in 0..60_000 {
            let rec = stream.next_branch().expect("the generator never ends");
            let want = fused.process(PredictInput::new(&rec));
            let got = staged.process(PredictInput::new(&rec));
            assert_eq!(got, want, "{}: record {i} ({rec:?})", cfg.label);
        }
    }
}

#[test]
fn inf_patterns_replay_equals_analyze_contexts() {
    let (sim, spec) = (tiny(), node_app());
    for w in [8, 64] {
        let want = analyze_contexts(&spec, w, &sim);
        let mut predictor = Llbp::new(analysis_config(w));
        let run = sim.run_stream(&mut predictor, &mut ServerWorkload::new(&spec), &spec.name);
        let got = extract_analysis(run).expect("analysis enabled");
        assert_eq!(got.contexts, want.contexts, "W={w}");
        assert_eq!(got.duplication, want.duplication, "W={w}");
        assert_eq!(got.useful_by_len, want.useful_by_len, "W={w}");
        assert_eq!(
            CellCounters::from_analysis("a", &got),
            CellCounters::from_analysis("a", &want),
            "W={w}"
        );
    }
}

#[test]
fn default_seed_maps_to_the_presets_own_seeds() {
    let presets = workloads::presets::all();
    let preset_seed = |name: &str| {
        presets
            .iter()
            .find(|p| p.spec.name == name)
            .map(|p| p.spec.seed)
    };
    for workload in Workload::ALL {
        for spec in workload.specs(DEFAULT_SEED) {
            assert_eq!(Some(spec.seed), preset_seed(&spec.name), "{}", spec.name);
        }
        let a = workload.specs(7);
        assert_eq!(a, workload.specs(7), "re-seeding is deterministic");
        for spec in &a {
            assert_ne!(Some(spec.seed), preset_seed(&spec.name), "{}", spec.name);
            assert_eq!(
                spec,
                &reseed(
                    presets
                        .iter()
                        .find(|p| p.spec.name == spec.name)
                        .unwrap()
                        .spec
                        .clone(),
                    7
                )
            );
        }
        assert_ne!(a, workload.specs(8), "another seed, other inputs");
    }
}

#[test]
fn traced_and_untraced_passes_agree() {
    let sim = tiny();
    for workload in Workload::ALL {
        let untraced = run_pass(workload, 3, &sim);
        let traced = run_traced_pass(workload, 3, &sim);
        assert!(untraced.iter().all(Result::is_ok), "{untraced:?}");
        assert_eq!(traced.cells, untraced, "{}", workload.name());
        assert_eq!(traced.spans.len(), untraced.len());
        assert!(traced
            .spans
            .iter()
            .all(|s| s.start.is_some() && s.end.is_some()));
    }
}

#[test]
fn per_layer_metrics_apply_where_their_layer_runs() {
    let sim = tiny();
    for workload in Workload::ALL {
        let pass = run_traced_pass(workload, DEFAULT_SEED, &sim);
        let layers = layer_metrics(&pass, pass.engine_s, workload.specs(DEFAULT_SEED).len());
        for (name, value) in layers {
            let metric = PER_LAYER
                .iter()
                .find(|m| m.name == name)
                .expect("a listed metric");
            let label = format!("{} on {}", name, workload.name());
            if !metric.applies_to(workload) {
                assert_eq!(value, 0.0, "{label} does not apply, yet reads {value}");
            } else if !metric.derived && (metric.unit == "s" || metric.unit == "count") {
                assert!(value > 0.0, "{label} applies, yet reads {value}");
            }
        }
    }
}

#[test]
fn tsl_designs_are_the_bench_constructors() {
    for design in [Design::Tsl64, Design::Tsl512, Design::TslInf] {
        let cfg = design.tsl_config().expect("a TSL design");
        let bench = design.construct();
        let staged = TageScl::new(cfg);
        assert_eq!(staged.name(), bench.name());
        assert_eq!(staged.name(), design.label());
        assert_eq!(staged.storage_bits(), bench.storage_bits());
    }
}

#[test]
fn benchmark_json_lists_what_the_benchmark_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json =
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON");
    let names = |key: &str| -> Vec<(String, String, String)> {
        json.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_owned()
                };
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    };
    let want = |list: &[perfbench::metrics::Metric]| -> Vec<(String, String, String)> {
        list.iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    m.unit.to_owned(),
                    m.better.as_str().to_owned(),
                )
            })
            .collect()
    };
    assert_eq!(names("end_to_end"), want(END_TO_END));
    assert_eq!(names("per_layer"), want(PER_LAYER));
    let workloads: Vec<String> = json
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_owned))
        .collect();
    assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_owned()));
}
