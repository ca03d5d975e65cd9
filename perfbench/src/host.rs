//! Host measurements (process CPU time, peak resident memory) and the
//! provenance stamped on every record.

use std::path::{Path, PathBuf};
use std::process::Command;

use telemetry::Json;

use crate::counters::fnv1a;

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100 on
/// every Linux architecture the simulator builds for).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of this process so far, threads that have
/// already exited included.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.get(stat.rfind(')')? + 2..)?;
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Peak resident memory of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The processor model from `/proc/cpuinfo`, or `unknown`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Logical processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The repository root: the parent of this package's directory.
fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

/// `clean` or `dirty` against the checked-out revision, or `unknown`
/// outside a git work tree.
fn git_status() -> &'static str {
    match Command::new("git")
        .args(["status", "--porcelain"])
        .current_dir(repo_root())
        .output()
    {
        Ok(out) if out.status.success() && out.stdout.is_empty() => "clean",
        Ok(out) if out.status.success() => "dirty",
        _ => "unknown",
    }
}

/// Every `*.rs`, `Cargo.toml` and `Cargo.lock` under `dir`, build
/// directories skipped.
fn source_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() && name != "target" && !name.starts_with('.') {
            source_files(&path, out);
        } else if name.ends_with(".rs") || name == "Cargo.toml" || name == "Cargo.lock" {
            out.push(path);
        }
    }
}

/// FNV-1a over the sources the benchmark is built from (the repository's
/// crates, this package and the manifests), path by path in sorted order.
/// It names the measured code where the git revision cannot: in an
/// uncommitted tree, or in a copy that is not a git work tree.
pub fn source_digest() -> String {
    let root = repo_root();
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    source_files(&root.join("crates"), &mut files);
    source_files(Path::new(env!("CARGO_MANIFEST_DIR")), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for path in &files {
        let Ok(content) = std::fs::read(path) else {
            continue;
        };
        let relative = path.strip_prefix(root).unwrap_or(path);
        bytes.extend(relative.to_string_lossy().bytes());
        bytes.extend((content.len() as u64).to_le_bytes());
        bytes.extend(content);
    }
    format!("{:016x}", fnv1a(bytes))
}

/// Git revision and work-tree status, a digest of the sources, rustc
/// version, CPU model and processor count.
pub fn provenance() -> Json {
    Json::obj()
        .set("git_rev", command_line("git", &["rev-parse", "HEAD"]))
        .set("git_status", git_status())
        .set("source_digest", source_digest())
        .set("rustc", command_line("rustc", &["--version"]))
        .set("cpu", cpu_model())
        .set("nproc", nproc())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_positive() {
        let spin: u64 = (0..2_000_000u64).fold(0, |a, x| a.wrapping_add(x * x));
        assert!(std::hint::black_box(spin) > 0);
        assert!(cpu_seconds().is_some_and(|s| s >= 0.0));
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }

    #[test]
    fn source_digest_is_stable() {
        assert_eq!(source_digest(), source_digest());
        assert_eq!(source_digest().len(), 16);
    }
}
