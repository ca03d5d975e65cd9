#!/usr/bin/env bash
# Tier-1 verification, fully offline: release build, the whole test suite,
# the panic-free lint gate, a build of the benchmark that drives the engine
# from outside, and smoke experiments covering determinism, fault
# isolation, the per-cell deadline, and checkpoint/resume.
#
# Usage: scripts/verify.sh
# Exits nonzero on the first failure.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: release build =="
cargo build --release --offline

echo "== tier-1: test suite =="
cargo test -q --offline

# perfbench/ is its own workspace and drives the engine API from outside
# (exec::run_matrix_with, try_materialize, ...); building it here makes a
# break in that API fail CI rather than the benchmark run.
echo "== build: perfbench against the engine API =="
cargo build --release --offline --manifest-path perfbench/Cargo.toml

# The library crates deny unwrap/expect outside tests (see the
# `#![cfg_attr(not(test), deny(...))]` attribute in each crate's lib.rs);
# clippy enforces it when available.
if cargo clippy --version >/dev/null 2>&1; then
    echo "== lint: clippy unwrap/expect gate (all library crates) =="
    cargo clippy -q --offline -p traces -p bpsim -p llbpx -p tage \
        -p workloads -p pipeline -p telemetry -- -D warnings
else
    echo "== lint: clippy unavailable, skipping (lib.rs deny attributes still apply) =="
fi

echo "== smoke: fig01 --json, LLBPX_THREADS=1 vs 4 =="
sink1="$(mktemp -t llbpx-verify-t1-XXXXXX.json)"
sink4="$(mktemp -t llbpx-verify-t4-XXXXXX.json)"
trap 'rm -f "$sink1" "$sink4"' EXIT
for t in 1 4; do
    sink_var="sink$t"
    LLBPX_THREADS=$t REPRO_WORKLOADS=NodeApp,TPCC \
        REPRO_WARMUP=100000 REPRO_INSTRUCTIONS=400000 \
        ./target/release/fig01 --json "${!sink_var}"
done

# Each record must be one well-formed JSON line with runs, intervals, the
# engine bookkeeping, and a nonzero scope profile (the same contract
# tests/telemetry.rs enforces) — and every accuracy field must be
# bit-identical between the 1-thread and 4-thread invocations (only the
# timing fields may differ).
python3 - "$sink1" "$sink4" <<'EOF'
import json, sys

def load(path):
    with open(path) as f:
        lines = [l for l in f.read().splitlines() if l.strip()]
    assert len(lines) == 1, f"expected one record line, got {len(lines)}"
    rec = json.loads(lines[0])
    assert rec["schema"] == "llbpx-telemetry/4", rec["schema"]
    assert rec["bench"] == "fig01"
    assert "failed_cells" not in rec, "no cell may fail in the clean smoke"
    assert rec["total_wall_seconds"] > 0
    assert rec["trace_cache"]["specs_cached"] + rec["trace_cache"]["specs_streamed"] >= 1
    assert len(rec["runs"]) >= 1
    for run in rec["runs"]:
        assert run["status"] == "ok", run
        assert run["trace_cache"] in ("streamed", "materialized"), run
        assert len(run["intervals"]) >= 2, "too few interval samples"
        timed = [s for s in run["profile"] if s["nanos"] > 0 and s["calls"] > 0]
        assert len(timed) >= 2, f"too few timed scopes: {run['profile']}"
    return rec

one, four = load(sys.argv[1]), load(sys.argv[2])
assert one["threads"] == 1 and four["threads"] == 4, (one["threads"], four["threads"])
assert len(one["runs"]) == len(four["runs"])
ACCURACY = ["predictor", "workload", "instructions", "cond_branches",
            "mispredicts", "mpki", "intervals"]
for r1, r4 in zip(one["runs"], four["runs"]):
    for key in ACCURACY:
        assert r1[key] == r4[key], \
            f"{key} differs between threads=1 and threads=4 for {r1['predictor']}"
print(f"ok: {len(one['runs'])} run record(s), accuracy bit-identical at 1 and 4 threads, "
      f"wall {one['total_wall_seconds']:.2f}s vs {four['total_wall_seconds']:.2f}s")
EOF

echo "== smoke: fig01 accuracy parity vs recorded stats =="
# The per-branch kernel is optimization territory; any change that shifts
# a single misprediction is a correctness bug, not a perf win. Diff the
# threads=1 smoke record against the stats recorded before the kernel
# optimization (scripts/fig01_accuracy.json, same protocol).
python3 - "$sink1" scripts/fig01_accuracy.json <<'EOF'
import json, sys
rec = json.loads(open(sys.argv[1]).read().splitlines()[0])
want = json.load(open(sys.argv[2]))
got_proto = [rec["runs"][0]["warmup_instructions"],
             rec["runs"][0]["measure_instructions"]]
assert got_proto == want["protocol"], \
    f"smoke protocol drifted: {got_proto} vs recorded {want['protocol']}"
ACCURACY = ["predictor", "workload", "instructions", "cond_branches",
            "mispredicts", "mpki", "override_candidates"]
got = [{k: r[k] for k in ACCURACY} for r in rec["runs"]]
assert len(got) == len(want["runs"]), (len(got), len(want["runs"]))
for g, w in zip(got, want["runs"]):
    assert g == w, f"accuracy drifted from the recorded stats:\n  got  {g}\n  want {w}"
print(f"ok: {len(got)} run(s) bit-identical to the recorded pre-optimization stats")
EOF

echo "== smoke: fault isolation (LLBPX_FAULT_CELL) =="
# One deliberately-panicking cell: the run must exit nonzero, render the
# broken preset as n/a, keep the other preset's row, and mark exactly one
# telemetry run failed.
sink_fault="$(mktemp -t llbpx-verify-fault-XXXXXX.json)"
fault_out="$(mktemp -t llbpx-verify-fault-XXXXXX.out)"
if LLBPX_FAULT_CELL=1 LLBPX_THREADS=4 REPRO_WORKLOADS=NodeApp,TPCC \
    REPRO_WARMUP=100000 REPRO_INSTRUCTIONS=400000 \
    ./target/release/fig01 --json "$sink_fault" >"$fault_out" 2>/dev/null; then
    echo "error: fig01 exited 0 despite a failed cell" >&2
    exit 1
fi
grep -q "n/a" "$fault_out" || { echo "error: no n/a row for the failed cell" >&2; exit 1; }
python3 - "$sink_fault" <<'EOF'
import json, sys
rec = json.loads(open(sys.argv[1]).read().splitlines()[0])
assert rec["failed_cells"] == 1, rec.get("failed_cells")
failed = [r for r in rec["runs"] if r["status"] == "failed"]
assert len(failed) == 1 and "LLBPX_FAULT_CELL" in failed[0]["error"], failed
ok = [r for r in rec["runs"] if r["status"] == "ok"]
assert len(ok) == len(rec["runs"]) - 1, "the other cells must complete"
print(f"ok: 1 of {len(rec['runs'])} cells failed, isolated, exit nonzero")
EOF
rm -f "$sink_fault" "$fault_out"

echo "== smoke: a slow cell stops at its deadline (LLBPX_JOB_TIMEOUT) =="
# One deliberately-slow cell hangs until its 2s deadline: the run must exit
# nonzero, render the broken preset as n/a, attribute the cell as status
# "timeout", and complete every other cell (the outer `timeout` is the
# backstop proving the sweep cannot hang).
sink_slow="$(mktemp -t llbpx-verify-slow-XXXXXX.json)"
slow_out="$(mktemp -t llbpx-verify-slow-XXXXXX.out)"
if timeout 120 env LLBPX_FAULT_CELL=1:slow LLBPX_JOB_TIMEOUT=2 LLBPX_THREADS=4 \
    REPRO_WORKLOADS=NodeApp,TPCC REPRO_WARMUP=100000 REPRO_INSTRUCTIONS=400000 \
    ./target/release/fig01 --json "$sink_slow" >"$slow_out" 2>/dev/null; then
    echo "error: fig01 exited 0 despite a timed-out cell" >&2
    exit 1
fi
grep -q "n/a" "$slow_out" || { echo "error: no n/a row for the slow cell" >&2; exit 1; }
python3 - "$sink_slow" <<'EOF'
import json, sys
rec = json.loads(open(sys.argv[1]).read().splitlines()[0])
assert rec["schema"] == "llbpx-telemetry/4", rec["schema"]
assert rec["timed_out_cells"] == 1, rec.get("timed_out_cells")
assert rec["job_timeout_seconds"] == 2.0, rec.get("job_timeout_seconds")
timed_out = [r for r in rec["runs"] if r["status"] == "timeout"]
assert len(timed_out) == 1, [r["status"] for r in rec["runs"]]
assert "LLBPX_JOB_TIMEOUT" in timed_out[0]["error"], timed_out[0]["error"]
ok = [r for r in rec["runs"] if r["status"] == "ok"]
assert len(ok) == len(rec["runs"]) - 1, "the other cells must complete"
print(f"ok: slow cell stopped at its deadline, {len(ok)} healthy cell(s) completed")
EOF
rm -f "$sink_slow" "$slow_out"

echo "== smoke: kill -9 mid-matrix, resume from LLBPX_CHECKPOINT =="
ckpt="$(mktemp -t llbpx-verify-ckpt-XXXXXX.jsonl)"
clean_out="$(mktemp -t llbpx-verify-clean-XXXXXX.out)"
resume_out="$(mktemp -t llbpx-verify-resume-XXXXXX.out)"
rm -f "$ckpt"
run_fig01_4t() { # args = extra env assignments
    env LLBPX_THREADS=4 REPRO_WORKLOADS=NodeApp,TPCC,Wikipedia,Spring \
        REPRO_WARMUP=300000 REPRO_INSTRUCTIONS=1000000 "$@" \
        ./target/release/fig01
}
run_fig01_4t >"$clean_out"
run_fig01_4t "LLBPX_CHECKPOINT=$ckpt" >/dev/null 2>&1 &
victim=$!
# Kill as soon as the journal holds one finished cell (mid-matrix).
for _ in $(seq 1 600); do
    [ -s "$ckpt" ] && break
    kill -0 "$victim" 2>/dev/null || break
    sleep 0.05
done
kill -9 "$victim" 2>/dev/null || true
wait "$victim" 2>/dev/null || true
[ -s "$ckpt" ] || { echo "error: the killed run journaled nothing" >&2; exit 1; }
before=$(wc -l <"$ckpt")
run_fig01_4t "LLBPX_CHECKPOINT=$ckpt" >"$resume_out" 2>/dev/null
# Only the wall-time line may differ from the uninterrupted run.
if ! diff <(grep -v "total wall time" "$clean_out") \
          <(grep -v "total wall time" "$resume_out"); then
    echo "error: resumed output is not byte-identical to a clean run" >&2
    exit 1
fi
echo "ok: killed after $before journaled cell(s); resumed output byte-identical"
rm -f "$ckpt" "$clean_out" "$resume_out"

echo "== verify: all green =="
