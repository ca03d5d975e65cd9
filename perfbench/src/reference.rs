//! The recorded reference counters: every cell of every workload at the
//! default seed, checked on each run at that seed.

use std::path::Path;

use bpsim::Simulation;
use telemetry::Json;

use crate::counters::CellCounters;
use crate::workload::{run_pass, Workload, DEFAULT_SEED};

/// The reference as committed next to the sources.
const RECORDED: &str = include_str!("../reference.json");

/// Schema tag of the reference file.
const SCHEMA: &str = "perfbench-reference/1";

fn protocol_json(sim: &Simulation) -> Json {
    Json::obj()
        .set("warmup_instructions", sim.warmup_instructions)
        .set("measure_instructions", sim.measure_instructions)
}

/// The reference cells of `workload`, or why there are none: a workload
/// missing from the file, or recorded at another protocol, cannot be
/// checked.
pub fn load(workload: Workload) -> Result<Vec<CellCounters>, String> {
    let json = Json::parse(RECORDED).map_err(|e| format!("reference.json: {e}"))?;
    if json.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("reference.json is not {SCHEMA}"));
    }
    let entry = json
        .get("workloads")
        .and_then(|w| w.get(workload.name()))
        .ok_or_else(|| format!("reference.json has no `{}`", workload.name()))?;
    if entry.get("protocol") != Some(&protocol_json(&workload.protocol())) {
        return Err(format!(
            "reference.json records `{}` at another protocol",
            workload.name()
        ));
    }
    entry
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or("reference.json: no cells")?
        .iter()
        .map(CellCounters::from_json)
        .collect()
}

/// Runs one untraced pass of every workload at the default seed and
/// writes their counters to `path`. Fails, writing nothing, if any cell
/// fails.
pub fn write(path: &Path) -> Result<(), String> {
    // One cell per line, so a changed counter shows as a one-line diff.
    let mut entries = Vec::new();
    for workload in Workload::ALL {
        let sim = workload.protocol();
        let cells = run_pass(workload, DEFAULT_SEED, &sim)
            .into_iter()
            .collect::<Result<Vec<CellCounters>, String>>()
            .map_err(|e| format!("{}: {e}", workload.name()))?;
        eprintln!("reference: {} ({} cells)", workload.name(), cells.len());
        let cells: Vec<String> = cells.iter().map(|c| c.to_json().to_string()).collect();
        entries.push(format!(
            "{}:{{\"protocol\":{},\"cells\":[\n{}\n]}}",
            Json::from(workload.name()),
            protocol_json(&sim),
            cells.join(",\n")
        ));
    }
    let doc = format!(
        "{{\"schema\":{},\"workloads\":{{\n{}\n}}}}\n",
        Json::from(SCHEMA),
        entries.join(",\n")
    );
    std::fs::write(path, doc).map_err(|e| format!("{}: {e}", path.display()))
}
