//! `perfbench`: runs one workload of the benchmark and prints its metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--record <file.jsonl>]
//! perfbench compare <base.jsonl> <new.jsonl> [--bounds <BENCHMARK.json>]
//! perfbench write-reference [<reference.json>]
//! ```
//!
//! A run repeats rounds for `--seconds` (at least three): two timed
//! set-up phases, then one untraced pass in a fresh process of this
//! program, and with `--trace 1` one traced pass after it. Every pass's counters are checked. The last line of standard output is one JSON
//! object: the end-to-end metrics of an untraced run, or the per-layer
//! metrics of a traced one, with the output check's verdict. A
//! human-readable summary goes to standard error.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use perfbench::counters::{
    describe_difference, outcomes_from_json, outcomes_json, pass_digest, CellCounters, CellOutcome,
};
use perfbench::metrics::{layer_metrics, Metric, END_TO_END, PER_LAYER};
use perfbench::stats::{median, spread};
use perfbench::workload::{self, Workload, DEFAULT_SEED, THREADS, TRACE_CACHE_BYTES};
use perfbench::{compare, host, probe, reference};
use telemetry::Json;

/// Timed set-up phases before each pass; `setup_s` is the median of all
/// of a run's. Spread over the run, they see the same host as its passes,
/// not just its first second.
const SETUPS_PER_ROUND: usize = 2;

/// Rounds per run, at least.
const MIN_PASSES: usize = 3;

/// No round starts after this much time in the loop, whatever
/// `--seconds` asks, so a run ends well within three minutes.
const PASS_DEADLINE: Duration = Duration::from_secs(120);

/// Schema tag of record lines.
const RECORD_SCHEMA: &str = "perfbench-record/2";

fn main() -> ExitCode {
    clear_engine_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("pass") => parse_options(&args[1..]).and_then(|o| pass_main(&o)),
        Some("compare") => compare_main(&args[1..]),
        Some("write-reference") => {
            let path = args
                .get(1)
                .map_or("perfbench/reference.json", String::as_str);
            reference::write(Path::new(path)).map(|()| ExitCode::SUCCESS)
        }
        _ => parse_options(&args).and_then(|o| run_main(&o)),
    };
    result.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        ExitCode::FAILURE
    })
}

/// Removes every `LLBPX_*` and `REPRO_*` variable from this process's
/// environment, and so from every pass process it starts, before any
/// thread starts: no ambient engine knob (fault injection, chaos,
/// supervision, checkpoints) changes a workload.
fn clear_engine_env() {
    for (key, _) in std::env::vars_os() {
        if key
            .to_str()
            .is_some_and(|k| k.starts_with("LLBPX_") || k.starts_with("REPRO_"))
        {
            std::env::remove_var(key);
        }
    }
}

struct Options {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    record: Option<PathBuf>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    fn number(flag: &str, value: Option<&String>) -> Result<u64, String> {
        value
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{flag} needs a non-negative whole number"))
    }
    let mut opts = Options {
        workload: Workload::TslSweep,
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        record: None,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = it.next().ok_or("--workload needs a name")?;
                workload = Some(Workload::parse(name).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!(
                        "unknown workload `{name}` (expected one of {})",
                        names.join(", ")
                    )
                })?);
            }
            "--seed" => opts.seed = number(flag, it.next())?,
            "--seconds" => opts.seconds = number(flag, it.next())?,
            "--trace" => {
                opts.trace = match number(flag, it.next())? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            "--record" => {
                opts.record = Some(PathBuf::from(it.next().ok_or("--record needs a path")?))
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

/// What one pass measured.
struct Pass {
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    cells: Vec<CellOutcome>,
    /// Per-layer metrics of a traced pass; empty for an untraced one.
    layers: Vec<(String, f64)>,
}

impl Pass {
    fn to_json(&self) -> Json {
        let layers = self
            .layers
            .iter()
            .fold(Json::obj(), |o, (k, v)| o.set(k.as_str(), *v));
        Json::obj()
            .set("wall_s", self.wall_s)
            .set("cpu_s", self.cpu_s)
            .set("peak_rss_mb", self.peak_rss_mb)
            .set("cells", outcomes_json(&self.cells))
            .set("layers", layers)
    }

    fn from_json(json: &Json) -> Result<Self, String> {
        let num = |k: &str| {
            json.get(k)
                .and_then(Json::as_f64)
                .ok_or(format!("pass report without {k}"))
        };
        let layers = match json.get("layers") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .filter_map(|(k, v)| v.as_f64().map(|x| (k.clone(), x)))
                .collect(),
            _ => Vec::new(),
        };
        Ok(Pass {
            wall_s: num("wall_s")?,
            cpu_s: num("cpu_s")?,
            peak_rss_mb: num("peak_rss_mb")?,
            cells: outcomes_from_json(json.get("cells").ok_or("pass report without cells")?)?,
            layers,
        })
    }
}

/// One pass in this process; prints its [`Pass`] as one JSON line.
fn pass_main(opts: &Options) -> Result<ExitCode, String> {
    let (w, seed) = (opts.workload, opts.seed);
    let sim = w.protocol();
    let cpu_before = host::cpu_seconds().ok_or("cannot read /proc/self/stat")?;
    let started = Instant::now();
    let (cells, layers) = if opts.trace {
        let pass = workload::run_traced_pass(w, seed, &sim);
        let layers = layer_metrics(&pass, started.elapsed().as_secs_f64(), w.specs(seed).len());
        let layers = layers.into_iter().map(|(k, v)| (k.to_owned(), v));
        (pass.cells, layers.collect())
    } else {
        (workload::run_pass(w, seed, &sim), Vec::new())
    };
    let pass = Pass {
        wall_s: started.elapsed().as_secs_f64(),
        cpu_s: host::cpu_seconds().ok_or("cannot read /proc/self/stat")? - cpu_before,
        peak_rss_mb: host::peak_rss_mb().ok_or("cannot read /proc/self/status")?,
        cells,
        layers,
    };
    println!("{}", pass.to_json());
    Ok(ExitCode::SUCCESS)
}

/// Runs one pass in a fresh process of this program. Passes in one
/// process would share the allocator's per-thread arenas, which keep
/// memory from pass to pass: there, `llbpx_fig12`'s peak memory read
/// either about 50 or about 89 MiB from pass to pass, against 45.5 MiB,
/// within 1%, in fresh processes.
fn run_pass(opts: &Options, traced: bool) -> Result<Pass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this program: {e}"))?;
    let out = Command::new(exe)
        .args(["pass", "--workload", opts.workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a pass: {e}"))?;
    if !out.status.success() {
        return Err(format!("a pass process failed: {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or("a pass process printed nothing")?;
    Pass::from_json(&Json::parse(line).map_err(|e| e.to_string())?)
}

/// The counters each cell must show: the recorded reference at the
/// default seed, else the first pass's.
fn expected_cells(opts: &Options, first: &Pass, n: usize) -> Vec<Option<CellCounters>> {
    if opts.seed != DEFAULT_SEED {
        return first
            .cells
            .iter()
            .map(|c| c.as_ref().ok().cloned())
            .collect();
    }
    match reference::load(opts.workload) {
        Ok(cells) if cells.len() == n => cells.into_iter().map(Some).collect(),
        Ok(cells) => {
            eprintln!(
                "check: the reference has {} cells, the workload {n}",
                cells.len()
            );
            vec![None; n]
        }
        Err(e) => {
            eprintln!("check: {e}");
            vec![None; n]
        }
    }
}

/// Counts failed cells over every pass: engine errors, and counters that
/// differ from the expected ones.
fn check(expected: &[Option<CellCounters>], passes: &[&Pass]) -> usize {
    let mut failed = 0;
    for (p, pass) in passes.iter().enumerate() {
        if pass.cells.len() != expected.len() {
            eprintln!(
                "check: pass {p} returned {} cells, expected {}",
                pass.cells.len(),
                expected.len()
            );
            failed += expected.len();
            continue;
        }
        for (i, (got, want)) in pass.cells.iter().zip(expected).enumerate() {
            let problem = match (got, want) {
                (Err(e), _) => Some(format!("cell {i} failed: {e}")),
                (Ok(_), None) => Some(format!("cell {i}: nothing to check against")),
                (Ok(g), Some(w)) if g != w => Some(describe_difference(w, g)),
                _ => None,
            };
            if let Some(problem) = problem {
                eprintln!("check: pass {p}: {problem}");
                failed += 1;
            }
        }
    }
    failed
}

fn metric_json(m: &Metric, value: f64) -> Json {
    Json::obj().set("value", value).set("unit", m.unit)
}

fn run_main(opts: &Options) -> Result<ExitCode, String> {
    let w = opts.workload;
    let sim = w.protocol();
    let n = w.cells(opts.seed).len();

    // One untimed set-up phase first: it is the first to touch the
    // allocator and the generators.
    workload::setup(w, opts.seed, &sim)?;

    // Rounds until the next one would end after `--seconds`.
    let budget = Duration::from_secs(opts.seconds);
    let started = Instant::now();
    let mut setups = Vec::new();
    let mut passes = Vec::new();
    let mut traced = Vec::new();
    loop {
        for _ in 0..SETUPS_PER_ROUND {
            setups.push(workload::setup(w, opts.seed, &sim)?);
        }
        passes.push(run_pass(opts, false)?);
        if opts.trace {
            traced.push(run_pass(opts, true)?);
        }
        let elapsed = started.elapsed();
        let next_ends = elapsed + elapsed / passes.len() as u32;
        let enough = passes.len() >= MIN_PASSES && next_ends > budget;
        if enough || elapsed >= PASS_DEADLINE {
            break;
        }
    }

    let expected = expected_cells(opts, &passes[0], n);
    let checked: Vec<&Pass> = passes.iter().chain(&traced).collect();
    let attempted = n * checked.len();
    let failed = check(&expected, &checked);

    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let instructions = (n as u64 * (sim.warmup_instructions + sim.measure_instructions)) as f64;
    let mut samples: Vec<(&str, Vec<f64>)> = vec![
        ("wall_s", walls.clone()),
        ("cpu_s", passes.iter().map(|p| p.cpu_s).collect()),
        ("setup_s", setups.iter().map(|s| s.total_s()).collect()),
        (
            "sim_minst_per_s",
            walls.iter().map(|w| instructions / w / 1e6).collect(),
        ),
        (
            "peak_rss_mb",
            passes.iter().map(|p| p.peak_rss_mb).collect(),
        ),
    ];
    let values: Vec<(&Metric, f64)> = if opts.trace {
        // Every traced pass against the untraced pass just before it.
        samples.push((
            "trace.overhead_frac",
            traced
                .iter()
                .zip(&passes)
                .map(|(t, u)| t.wall_s / u.wall_s)
                .collect(),
        ));
        samples.push((
            "sim.exec.materialize_s",
            setups.iter().map(|s| s.materialize_s).collect(),
        ));
        for m in PER_LAYER {
            if !samples.iter().any(|(k, _)| *k == m.name) {
                let xs = traced
                    .iter()
                    .map(|t| {
                        t.layers
                            .iter()
                            .find(|(k, _)| k == m.name)
                            .map_or(0.0, |l| l.1)
                    })
                    .collect();
                samples.push((m.name, xs));
            }
        }
        PER_LAYER
            .iter()
            .map(|m| (m, median_of(&samples, m.name)))
            .collect()
    } else {
        let ok_frac = 1.0 - failed as f64 / attempted as f64;
        END_TO_END
            .iter()
            .map(|m| match m.name {
                "cells_ok_frac" => (m, ok_frac),
                name => (m, median_of(&samples, name)),
            })
            .collect()
    };

    print_summary(
        opts,
        (setups.len(), passes.len(), traced.len()),
        &values,
        &samples,
        failed,
        attempted,
    );
    let metrics_json = |applicable_only: bool| {
        values
            .iter()
            .filter(|(m, _)| !applicable_only || m.applies_to(w))
            .fold(Json::obj(), |o, (m, v)| o.set(m.name, metric_json(m, *v)))
    };
    let correct = failed == 0;
    if let Some(path) = &opts.record {
        let first_ok: Vec<CellCounters> = passes[0]
            .cells
            .iter()
            .filter_map(|c| c.as_ref().ok().cloned())
            .collect();
        let record = Json::obj()
            .set("schema", RECORD_SCHEMA)
            .set("workload", w.name())
            .set("seed", opts.seed.to_string())
            .set("trace", u64::from(opts.trace))
            .set(
                "protocol",
                Json::obj()
                    .set("warmup_instructions", sim.warmup_instructions)
                    .set("measure_instructions", sim.measure_instructions)
                    .set("threads", THREADS)
                    .set("trace_cache_mb", TRACE_CACHE_BYTES >> 20)
                    .set("sample_every", probe::SAMPLE_EVERY)
                    .set("seconds", opts.seconds)
                    .set("passes", passes.len())
                    .set("traced_passes", traced.len())
                    .set("setups", setups.len()),
            )
            .set("provenance", host::provenance())
            .set("correct", correct)
            .set("attempted", attempted)
            .set("failed", failed)
            .set("cells_failed_frac", failed as f64 / attempted as f64)
            .set(
                "counters_digest",
                format!("{:016x}", pass_digest(&first_ok)),
            )
            .set("metrics", metrics_json(true))
            .set(
                "derived",
                Json::Arr(
                    values
                        .iter()
                        .filter(|(m, _)| m.derived && m.applies_to(w))
                        .map(|(m, _)| Json::from(m.name))
                        .collect(),
                ),
            )
            .set(
                "samples",
                samples
                    .iter()
                    .filter(|(k, _)| !PER_LAYER.iter().any(|m| m.name == *k && !m.applies_to(w)))
                    .fold(Json::obj(), |o, (k, xs)| {
                        o.set(*k, Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect()))
                    }),
            );
        telemetry::record::append_line(path, &record)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    // The result line carries every metric, as `BENCHMARK.json` lists them;
    // a per-layer metric of a layer this workload does not run reads 0.
    let result = Json::obj()
        .set("correct", correct)
        .set("attempted", attempted)
        .set("failed", failed)
        .set("metrics", metrics_json(false));
    println!("{result}");
    Ok(ExitCode::SUCCESS)
}

fn median_of(samples: &[(&str, Vec<f64>)], name: &str) -> f64 {
    samples
        .iter()
        .find(|(k, _)| *k == name)
        .map_or(f64::NAN, |(_, xs)| median(xs))
}

fn print_summary(
    opts: &Options,
    (setups, passes, traced): (usize, usize, usize),
    values: &[(&Metric, f64)],
    samples: &[(&str, Vec<f64>)],
    failed: usize,
    attempted: usize,
) {
    let sim = opts.workload.protocol();
    eprintln!(
        "{} seed {}: {passes} timed pass(es) + {traced} traced, {setups} timed set-up \
         phases, {THREADS} threads, {}+{} instructions per cell",
        opts.workload.name(),
        opts.seed,
        sim.warmup_instructions,
        sim.measure_instructions,
    );
    for (m, v) in values {
        if !m.applies_to(opts.workload) {
            eprintln!("  {:<28} {:>14} {:<8}", m.name, "n/a", m.unit);
            continue;
        }
        let spread = samples
            .iter()
            .find(|(k, _)| *k == m.name)
            .filter(|(_, xs)| xs.len() > 1)
            .map_or(String::new(), |(_, xs)| {
                format!("  (spread {:.1}% over {})", spread(xs) * 100.0, xs.len())
            });
        let derived = if m.derived { "  [derived]" } else { "" };
        eprintln!(
            "  {:<28} {:>14.6} {:<8}{spread}{derived}",
            m.name, v, m.unit
        );
    }
    eprintln!("  cells failed: {failed} of {attempted}");
}

fn compare_main(args: &[String]) -> Result<ExitCode, String> {
    let mut paths = Vec::new();
    let mut bounds = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bounds" => bounds = PathBuf::from(it.next().ok_or("--bounds needs a path")?),
            path => paths.push(PathBuf::from(path)),
        }
    }
    let [base, new] = paths.as_slice() else {
        return Err("compare needs exactly two record files".to_owned());
    };
    let bounds = compare::load_bounds(&bounds)?;
    let (table, regressed) = compare::compare(
        &compare::load_records(base)?,
        &compare::load_records(new)?,
        &bounds,
    );
    print!("{table}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
