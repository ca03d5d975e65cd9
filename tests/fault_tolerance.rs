//! Fault-tolerance acceptance, end to end against a real experiment
//! binary:
//!
//! * a matrix with one deliberately-panicking cell (`LLBPX_FAULT_CELL`)
//!   completes every other cell, renders the failed preset as an `n/a`
//!   row, marks the run `status: "failed"` in telemetry, and exits
//!   non-zero;
//! * a deliberately slow cell is stopped at its `LLBPX_JOB_TIMEOUT`
//!   deadline, reported as `status: "timeout"`, and a clean re-run against
//!   the same journal completes the matrix;
//! * a 4-thread run SIGKILLed mid-matrix resumes from its
//!   `LLBPX_CHECKPOINT` journal and produces stdout byte-identical to an
//!   uninterrupted run (only the wall-time line may differ).

use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

use telemetry::Json;

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("llbpx-fault-tolerance-{tag}-{}", std::process::id()))
}

fn fig01() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fig01"));
    cmd.env("REPRO_WORKLOADS", "NodeApp,TPCC")
        .env("REPRO_WARMUP", "50000")
        .env("REPRO_INSTRUCTIONS", "200000")
        .env("LLBPX_THREADS", "4");
    cmd
}

#[test]
fn a_panicking_cell_yields_na_row_failed_status_and_nonzero_exit() {
    let sink = tmp_path("fault-cell.json");
    let _ = std::fs::remove_file(&sink);

    // Cell 1 is NodeApp's second job; TPCC's cells must still complete.
    let output = fig01()
        .arg("--json")
        .arg(&sink)
        .env("LLBPX_FAULT_CELL", "1")
        .output()
        .expect("fig01 runs");
    assert!(!output.status.success(), "a failed cell must not exit 0");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("matrix cell(s) failed"), "stderr: {stderr}");

    let stdout = String::from_utf8_lossy(&output.stdout);
    let na_row = stdout.lines().find(|l| l.contains("NodeApp")).expect("NodeApp row renders");
    assert!(na_row.contains("n/a"), "failed preset must render as n/a: {na_row}");
    let tpcc_row = stdout.lines().find(|l| l.contains("TPCC")).expect("TPCC row renders");
    assert!(!tpcc_row.contains("n/a"), "healthy preset must still complete: {tpcc_row}");

    let text = std::fs::read_to_string(&sink).expect("sink was written");
    let _ = std::fs::remove_file(&sink);
    let line = Json::parse(text.lines().next().expect("one record line")).expect("valid JSON");
    assert_eq!(line.get("failed_cells").unwrap().as_i64(), Some(1));
    let runs = line.get("runs").unwrap().as_arr().unwrap();
    assert_eq!(runs.len(), 4);
    let failed: Vec<&Json> = runs
        .iter()
        .filter(|r| r.get("status").unwrap().as_str() == Some("failed"))
        .collect();
    assert_eq!(failed.len(), 1, "exactly the faulted cell fails");
    let error = failed[0].get("error").unwrap().as_str().unwrap();
    assert!(error.contains("LLBPX_FAULT_CELL"), "error carries the panic message: {error}");
    assert_eq!(failed[0].get("workload").unwrap().as_str(), Some("NodeApp"));
}

/// A `:slow` fault cell stalls until its `LLBPX_JOB_TIMEOUT` deadline.
#[test]
fn a_stalled_cell_is_cancelled_reported_as_timeout_and_resumable() {
    let sink = tmp_path("slow.json");
    let checkpoint = tmp_path("slow.ckpt");
    let _ = std::fs::remove_file(&sink);
    let _ = std::fs::remove_file(&checkpoint);

    // Uninterrupted reference for the resume diff below.
    let clean = fig01().output().expect("fig01 runs");
    assert!(clean.status.success());

    // Cell 1 (NodeApp's second job) hangs until its deadline; the healthy
    // cells take well under a second each, so the 10s deadline only ever
    // stops the slow one, and the sweep must terminate promptly after it.
    let started = Instant::now();
    let output = fig01()
        .arg("--json")
        .arg(&sink)
        .env("LLBPX_FAULT_CELL", "1:slow")
        .env("LLBPX_JOB_TIMEOUT", "10")
        .env("LLBPX_CHECKPOINT", &checkpoint)
        .output()
        .expect("fig01 runs");
    assert!(
        started.elapsed() < Duration::from_secs(45),
        "the sweep must end soon after the slow cell's deadline"
    );
    assert!(!output.status.success(), "a timed-out cell must not exit 0");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("timed out"), "stderr attributes the timeout: {stderr}");

    let stdout = String::from_utf8_lossy(&output.stdout);
    let na_row = stdout.lines().find(|l| l.contains("NodeApp")).expect("NodeApp row renders");
    assert!(na_row.contains("n/a"), "timed-out preset renders as n/a: {na_row}");
    let tpcc_row = stdout.lines().find(|l| l.contains("TPCC")).expect("TPCC row renders");
    assert!(!tpcc_row.contains("n/a"), "healthy preset still completes: {tpcc_row}");

    let text = std::fs::read_to_string(&sink).expect("sink was written");
    let _ = std::fs::remove_file(&sink);
    let line = Json::parse(text.lines().next().expect("one record line")).expect("valid JSON");
    assert_eq!(line.get("timed_out_cells").unwrap().as_i64(), Some(1));
    assert_eq!(line.get("failed_cells").unwrap().as_i64(), Some(1));
    let runs = line.get("runs").unwrap().as_arr().unwrap();
    let timed_out: Vec<&Json> = runs
        .iter()
        .filter(|r| r.get("status").unwrap().as_str() == Some("timeout"))
        .collect();
    assert_eq!(timed_out.len(), 1, "exactly the slow cell times out");
    let error = timed_out[0].get("error").unwrap().as_str().unwrap();
    assert!(error.contains("deadline"), "error names the deadline: {error}");
    assert!(error.contains("LLBPX_JOB_TIMEOUT"), "error names the knob: {error}");
    assert_eq!(line.get("job_timeout_seconds").unwrap().as_f64(), Some(10.0));

    // Clean re-run against the same journal: the three completed cells
    // restore, the slow one simulates, and stdout is byte-identical to the
    // uninterrupted reference.
    let resumed = fig01().env("LLBPX_CHECKPOINT", &checkpoint).output().expect("fig01 resumes");
    let _ = std::fs::remove_file(&checkpoint);
    assert!(
        resumed.status.success(),
        "resume after a timeout failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        stable_stdout(&clean.stdout),
        stable_stdout(&resumed.stdout),
        "resume after a timeout must match an uninterrupted run"
    );
}

/// Drops the only line that may legitimately differ between a clean run
/// and a resumed run (total wall time).
fn stable_stdout(raw: &[u8]) -> String {
    String::from_utf8_lossy(raw)
        .lines()
        .filter(|l| !l.contains("total wall time"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn a_sigkilled_matrix_resumes_bit_identically_from_its_checkpoint() {
    let checkpoint = tmp_path("resume.ckpt");
    let sink = tmp_path("resume.json");
    let _ = std::fs::remove_file(&checkpoint);
    let _ = std::fs::remove_file(&sink);

    // Uninterrupted reference, no checkpoint involved.
    let clean = fig01().output().expect("fig01 runs");
    assert!(clean.status.success());

    // Kill a checkpointed run as soon as its journal holds one complete
    // cell. (On a fast machine the child may finish first; then the resume
    // below restores every cell — the diff must hold either way.)
    let mut child = fig01()
        .env("LLBPX_CHECKPOINT", &checkpoint)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("fig01 spawns");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let journaled = std::fs::read_to_string(&checkpoint)
            .map(|t| t.lines().count())
            .unwrap_or(0);
        if journaled >= 1 || child.try_wait().expect("child pollable").is_some() {
            break;
        }
        assert!(Instant::now() < deadline, "no cell journaled within 60s");
        std::thread::sleep(Duration::from_millis(5));
    }
    let _ = child.kill();
    let _ = child.wait();
    assert!(
        std::fs::read_to_string(&checkpoint).is_ok_and(|t| t.lines().count() >= 1),
        "the killed run journaled at least one cell"
    );

    // Resume: finished cells restore from the journal, the rest simulate.
    let resumed = fig01()
        .arg("--json")
        .arg(&sink)
        .env("LLBPX_CHECKPOINT", &checkpoint)
        .output()
        .expect("fig01 resumes");
    assert!(
        resumed.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        stable_stdout(&clean.stdout),
        stable_stdout(&resumed.stdout),
        "resumed stdout must be byte-identical to an uninterrupted run"
    );
    assert!(
        String::from_utf8_lossy(&resumed.stderr).contains("restored from the LLBPX_CHECKPOINT"),
        "resume notice goes to stderr"
    );

    let text = std::fs::read_to_string(&sink).expect("sink was written");
    let _ = std::fs::remove_file(&sink);
    let _ = std::fs::remove_file(&checkpoint);
    let line = Json::parse(text.lines().next().expect("one record line")).expect("valid JSON");
    assert!(line.get("resumed_cells").unwrap().as_i64().unwrap() >= 1);
    assert!(line.get("failed_cells").is_none(), "nothing failed on resume");
    let restored = line
        .get("runs")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .filter(|r| r.get("resumed") == Some(&Json::Bool(true)))
        .count();
    assert!(restored >= 1, "at least one run carries resumed: true");
}
