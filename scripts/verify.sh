#!/usr/bin/env bash
# Full local verification gate: formatting, lints, build, tests, and a smoke
# run of the reproduction suite producing a JSON artifact. Run from the
# repository root. Everything is offline; no network access is needed.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== rustfmt =="
cargo fmt --check

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== build (release) =="
cargo build --release --workspace

echo "== docs (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "== tests =="
cargo test -q --workspace

# Smoke artifact goes to target/ so it never clobbers the committed
# scale-64 baseline BENCH_results.json (regenerate that with
# `SIMCOV_SCALE=64 SIMCOV_TRIALS=3 cargo run --release -p simcov-bench
# --bin repro_all -- --json BENCH_results.json`).
echo "== bench smoke (scaled-down repro, JSON artifact) =="
SIMCOV_SCALE="${SIMCOV_SCALE:-256}" SIMCOV_TRIALS="${SIMCOV_TRIALS:-2}" \
    cargo run --release -p simcov-bench --bin repro_all -- --json target/BENCH_smoke.json \
    --metrics-out target/BENCH_smoke.prom >/dev/null

python3 - <<'EOF'
import json
doc = json.load(open("target/BENCH_smoke.json"))
for key in ("suite", "scale", "table1", "fig4", "fig5_and_table2", "fig6", "fig7", "fig8"):
    assert key in doc, f"BENCH_smoke.json missing key: {key}"
lines = [l for l in open("target/BENCH_smoke.prom")
         if l.strip() and not l.startswith("#")]
assert any(l.startswith("repro_section_wall_seconds") for l in lines), \
    "repro_all metrics exposition missing section gauges"
print("BENCH_smoke.json OK:", ", ".join(sorted(doc)))
EOF

# The fault, SDC and ablation sweeps are repro_all sections that run only
# when named. The fault sweep asserts in-process that every recovered run is
# bitwise identical to its failure-free baseline; the SDC sweep that every
# healed run is bitwise identical to its corruption-free baseline
# (statistics and per-voxel state) and that corruption-free cells stay
# silent at every audit period. The JSON checks cover the artifact; both
# ablations run at a fixed scale whatever SIMCOV_SCALE says.
echo "== sweeps (recovery, corruption healing, ablations + JSON artifact) =="
SIMCOV_SCALE=256 cargo run --release -p simcov-bench --bin repro_all -- \
    fault_sweep sdc_sweep ablation_tiles ablation_decomp \
    --json target/BENCH_sweeps.json >/dev/null

python3 - <<'EOF'
import json
doc = json.load(open("target/BENCH_sweeps.json"))["fault_sweep"]["results"]
assert doc.get("suite") == "fault_sweep", "wrong suite tag"
rows = doc["rows"]
assert rows, "fault sweep produced no rows"
for r in rows:
    assert r["identical_to_failure_free"], f"recovery diverged: {r}"
    assert r["checkpoint_delta_bytes"] <= r["checkpoint_full_bytes"], f"delta > dense: {r}"
assert any(r["recoveries"] > 0 for r in rows), "no cell exercised recovery"
print(f"fault_sweep OK: {len(rows)} cells, all bitwise-identical")
EOF

python3 - <<'EOF'
import json
doc = json.load(open("target/BENCH_sweeps.json"))["sdc_sweep"]["results"]
assert doc.get("suite") == "sdc_sweep", "wrong suite tag"
rows = doc["rows"]
assert rows, "sdc sweep produced no rows"
for r in rows:
    assert r["identical_to_corruption_free"], f"healing diverged: {r}"
    if r["corruption_rate"] == 0:
        clean = (r["payload_heals"], r["state_detections"],
                 r["checkpoint_quarantines"], r["retransmits"], r["rollbacks"])
        assert clean == (0, 0, 0, 0, 0), f"false positive on a clean run: {r}"
assert any(r["retransmits"] > 0 for r in rows), "no cell exercised in-barrier healing"
assert any(r["rollbacks"] > 0 for r in rows), "no cell exercised the rollback tier"
print(f"sdc_sweep OK: {len(rows)} cells, all healed bitwise-identical, "
      f"zero false positives")
EOF

python3 - <<'EOF'
import json
doc = json.load(open("target/BENCH_sweeps.json"))
for name in ("ablation_tiles", "ablation_decomp"):
    rows = doc[name]["results"]["rows"]
    assert rows, f"{name} produced no rows"
    print(f"{name} OK: {len(rows)} rows")
EOF

# Crash-restart smoke: a run killed mid-flight (simulated SIGKILL after
# step 25, exit code 3, no final persist) must resume from its durable
# checkpoint and reproduce the uninterrupted run's CSV byte-for-byte.
# Both distributed executors are exercised — the resume lands at step 20,
# off the GPU tile-activity check schedule, so a resumed device must
# rebuild its active set rather than coast until the next periodic check.
echo "== crash-restart smoke (durable checkpoint + --resume) =="
cat > target/verify_sdc.config <<'CFG'
; crash-restart smoke configuration
dim = 32 32 1
timesteps = 40
num-infections = 4
CFG
for exec in cpu gpu; do
    cargo run --release -q -p simcov-bench --bin simcov -- target/verify_sdc.config \
        --executor "$exec" --units 4 --out-csv target/verify_uninterrupted.csv 2>/dev/null >/dev/null
    set +e
    cargo run --release -q -p simcov-bench --bin simcov -- target/verify_sdc.config \
        --executor "$exec" --units 4 --persist target/verify_run.ck --persist-every 10 \
        --halt-after 25 2>/dev/null >/dev/null
    halt=$?
    set -e
    if [ "$halt" -ne 3 ]; then
        echo "expected simulated-crash exit code 3, got $halt ($exec)"
        exit 1
    fi
    cargo run --release -q -p simcov-bench --bin simcov -- target/verify_sdc.config \
        --executor "$exec" --units 4 --resume target/verify_run.ck \
        --out-csv target/verify_resumed.csv 2>/dev/null >/dev/null
    if ! cmp -s target/verify_uninterrupted.csv target/verify_resumed.csv; then
        echo "resumed $exec run diverged from the uninterrupted run"
        exit 1
    fi
    echo "crash-restart OK ($exec): resumed CSV identical to the uninterrupted run"
done

# Process-transport smoke: the socket transport (one worker process per
# rank, CRC64-sealed frames, read/write deadlines) must be invisible in the
# results — the 4-rank socket run is byte-identical to the in-process run
# on both executors — and a worker SIGKILLed at a barrier must recover
# through the rollback/re-partition ladder to the same bytes. Every run is
# wrapped in a hard timeout so a wedged worker can never hang the gate.
echo "== process transport smoke (socket ranks + kill-and-recover) =="
for exec in cpu gpu; do
    timeout 180 cargo run --release -q -p simcov-bench --bin simcov -- target/verify_sdc.config \
        --executor "$exec" --units 4 \
        --out-csv "target/verify_pt_${exec}_inproc.csv" 2>/dev/null >/dev/null
    timeout 180 cargo run --release -q -p simcov-bench --bin simcov -- target/verify_sdc.config \
        --executor "$exec" --units 4 --transport process \
        --out-csv "target/verify_pt_${exec}_socket.csv" 2>/dev/null >/dev/null
    if ! cmp -s "target/verify_pt_${exec}_inproc.csv" "target/verify_pt_${exec}_socket.csv"; then
        echo "process-transport $exec run diverged from the in-process run"
        exit 1
    fi
    echo "process transport OK ($exec): socket CSV identical to in-process"
done
# `--wire-kill` is one rank death in the run's fault plan: a real SIGKILL
# of the worker over sockets, a logical death in-process. Both recover to
# the failure-free bytes.
for transport in process inproc; do
    timeout 180 cargo run --release -q -p simcov-bench --bin simcov -- target/verify_sdc.config \
        --executor cpu --units 4 --transport "$transport" --wire-kill 30:1 \
        --out-csv "target/verify_pt_killed_${transport}.csv" 2>/dev/null >/dev/null
    if ! cmp -s target/verify_pt_cpu_inproc.csv "target/verify_pt_killed_${transport}.csv"; then
        echo "kill-and-recover run ($transport) diverged from the failure-free run"
        exit 1
    fi
    echo "process transport OK (kill-and-recover, $transport): recovered CSV identical to failure-free"
done

# Telemetry smoke: both exporters on a 32x32 run, per executor. The Chrome
# trace must parse and nest (>= 4 span levels on the GPU executor: step ->
# superstep -> rank-phase -> kernel; >= 3 on the CPU executor, which has no
# device-kernel layer), the Prometheus exposition must be line-parseable,
# and — the determinism invariant — the telemetry-on CSV must be
# byte-identical to the telemetry-off CSV.
echo "== telemetry smoke (trace/metrics exporters + zero-perturbation) =="
cat > target/verify_tel.config <<'CFG'
; telemetry smoke configuration
dim = 32 32 1
timesteps = 20
num-infections = 4
CFG
for exec in cpu gpu; do
    cargo run --release -q -p simcov-bench --bin simcov -- target/verify_tel.config \
        --executor "$exec" --units 4 --out-csv target/verify_tel_off.csv \
        2>/dev/null >/dev/null
    cargo run --release -q -p simcov-bench --bin simcov -- target/verify_tel.config \
        --executor "$exec" --units 4 --out-csv target/verify_tel_on.csv \
        --trace-out target/verify_tel_trace.json \
        --metrics-out target/verify_tel_metrics.prom 2>/dev/null >/dev/null
    if ! cmp -s target/verify_tel_off.csv target/verify_tel_on.csv; then
        echo "telemetry perturbed the $exec run (CSVs differ)"
        exit 1
    fi
    python3 - "$exec" <<'EOF'
import json, sys
exec_name = sys.argv[1]
doc = json.load(open("target/verify_tel_trace.json"))
events = doc["traceEvents"]
assert events, "empty trace"
spans = {e["args"]["id"]: e["args"] for e in events if e.get("ph") == "X"}
assert spans, "trace has no complete spans"
depth = 0
for a in spans.values():
    d, cur = 1, a
    while cur["parent"] in spans:
        cur = spans[cur["parent"]]
        d += 1
    depth = max(depth, d)
need = 4 if exec_name == "gpu" else 3
assert depth >= need, f"span nesting {depth} < {need} levels ({exec_name})"
assert doc["otherData"]["dropped_events"] == 0, "ring dropped events"
lines = [l.strip() for l in open("target/verify_tel_metrics.prom")
         if l.strip() and not l.startswith("#")]
assert lines, "empty prometheus exposition"
for l in lines:
    name = l.split("{")[0].split(" ")[0]
    assert name and name.replace("_", "").isalnum(), f"bad metric name: {l!r}"
    float(l.rsplit(" ", 1)[1])  # every sample line ends in a number
assert any(l.startswith("simcov_step_wall_ns") for l in lines), \
    "step-wall histogram missing"
print(f"telemetry OK ({exec_name}): {len(spans)} spans, depth {depth}, "
      f"{len(lines)} metric samples, CSV byte-identical")
EOF
done

# Control-plane replay gate: seeded fault cascades on both executors with
# event recording on, a fatal one included; the recorded log must fold
# through the pure core to the exact live control state and record streams
# (zero filesystem or executor access during the replay). The cascade
# property suite drives the same core through hundreds of seeded event
# sequences.
echo "== control-plane replay gate (pure-core determinism) =="
cargo test -q --test driver_state 2>/dev/null | tail -2

# The perf gate exits 1 if one of its in-run ratios breaks its bound (the
# table at the top of crates/bench/src/bin/perf_gate.rs); its exit status is
# the verdict, the check below covers the artifacts.
echo "== perf gate (interleaved ratio floors + telemetry overhead budget) =="
cargo run --release -p simcov-bench --bin perf_gate -- --smoke \
    --json target/BENCH_perf_smoke.json \
    --metrics-out target/BENCH_perf_smoke.prom >/dev/null

python3 - <<'EOF'
import json
doc = json.load(open("target/BENCH_perf_smoke.json"))
assert doc.get("suite") == "perf_gate", "wrong suite tag"
assert doc["speedups"], "perf gate measured no pair"
lines = [l for l in open("target/BENCH_perf_smoke.prom")
         if l.strip() and not l.startswith("#")]
assert any(l.startswith("perf_gate_speedup") for l in lines), \
    "perf gate metrics exposition missing the ratio gauges"
print("BENCH_perf_smoke.json OK:",
      ", ".join(f"{k} {v:.2f}x" for k, v in doc["speedups"].items()))
EOF

# The six suites on the shared equivalence harness (tests/equivalence/) and
# the trial-table suites under a --test-threads matrix: the test runner's own
# parallelism must not perturb the bitwise checks, the harness's shared code
# or the trial table's allocation count (the suites spawn their own WorkPool
# workers; running them from 1 and from 4 runner threads shakes out any
# hidden global state).
echo "== equivalence/trial-table matrix (test-threads 1 and 4) =="
for tt in 1 4; do
    echo "-- test-threads $tt --"
    for suite in cross_executor simd_differential parallel_ranks determinism \
        unit_conformance schedule_adversarial trial_listing trial_table_allocations; do
        cargo test -q --release --test "$suite" -- --test-threads "$tt" \
            | grep "^test result"
    done
done

# Sweep-server gate: a small RunSpec sweep through the job server's full
# lifecycle — submit, kill mid-run (simulated crash, exit 3), resume, and
# assert (a) every resumed CSV is byte-identical to an uninterrupted
# reference run and (b) the seeded fail-stop job exhausted its recovery
# ladder into a populated, replayable DLQ entry.
echo "== sweep server gate (kill/resume identity + dead-letter queue) =="
cat > target/verify_sweep_jobs.json <<'JOBS'
{"jobs": [
  {"name": "cell_a", "run": {"executor": "cpu", "units": 3,
    "dims": [24, 24], "steps": 30, "num_foi": 2, "seed": 11}},
  {"name": "cell_b", "run": {"executor": "gpu", "units": 2,
    "dims": [24, 24], "steps": 30, "num_foi": 2, "seed": 12}},
  {"name": "doomed", "run": {"executor": "cpu", "units": 3,
    "dims": [24, 24], "steps": 30, "num_foi": 2, "seed": 13,
    "fault": {"seed": 57005, "death": 1.0},
    "recovery": {"checkpoint_period": 4, "max_retries": 1,
                 "backoff_base_ns": 1000}}}
]}
JOBS
rm -rf target/sweep/verify target/sweep/verify_ref
cargo run --release -q -p simcov-bench --bin sweep_server -- \
    --jobs target/verify_sweep_jobs.json --out-dir target/sweep/verify_ref \
    --persist-every 7 >/dev/null
set +e
cargo run --release -q -p simcov-bench --bin sweep_server -- \
    --jobs target/verify_sweep_jobs.json --out-dir target/sweep/verify \
    --persist-every 7 --halt-after 13 >/dev/null
halt=$?
set -e
if [ "$halt" -ne 3 ]; then
    echo "expected simulated-crash exit code 3, got $halt"
    exit 1
fi
cargo run --release -q -p simcov-bench --bin sweep_server -- \
    --jobs target/verify_sweep_jobs.json --out-dir target/sweep/verify \
    --persist-every 7 --json target/BENCH_sweep_gate.json >/dev/null
for cell in cell_a cell_b; do
    if ! cmp -s "target/sweep/verify_ref/$cell.csv" "target/sweep/verify/$cell.csv"; then
        echo "resumed sweep job $cell diverged from the uninterrupted run"
        exit 1
    fi
done
python3 - <<'EOF'
import json
doc = json.load(open("target/BENCH_sweep_gate.json"))
assert doc.get("suite") == "sweep_server", "wrong suite tag"
assert doc["completed"] == 2, f"expected 2 completed jobs: {doc}"
assert doc["dead"] == 1, f"expected 1 dead-lettered job: {doc}"
assert doc["interrupted"] == 0, f"resume left interrupted jobs: {doc}"
dlq = json.load(open("target/sweep/verify/dlq/doomed.json"))
assert dlq["record"] == "dead_letter" and dlq["job"] == "doomed"
assert dlq["events"] > 0, "DLQ entry recorded no control-plane events"
assert dlq["error"] and dlq["replay_halt"], f"DLQ entry not replayable: {dlq}"
ref = open("target/sweep/verify_ref/cell_a.jsonl").read().splitlines()
assert '"record":"job"' in ref[0], "missing job header line"
assert sum('"record":"step"' in l for l in ref) == 30, "missing streamed step records"
# The interrupted stream appends the resumed run: a second header plus the
# steps recomputed from the restored checkpoint, ending at the final step.
resumed = open("target/sweep/verify/cell_a.jsonl").read().splitlines()
assert sum('"record":"job"' in l for l in resumed) == 2, "resume must append a header"
steps = [l for l in resumed if '"record":"step"' in l]
assert len(steps) > 30 and '"step":29,' in steps[-1], "resumed stream incomplete"
print(f"sweep gate OK: resumed CSVs identical, DLQ entry replayable "
      f"(halt={dlq['replay_halt']!r}, {dlq['events']} events)")
EOF

# The out-of-workspace benchmark package calls the crates' public API as it
# was written when the benchmark was frozen, and nothing above compiles it:
# build it offline and run its smoke sizes (output checks included) so a
# crate API change cannot break the yardstick unnoticed.
echo "== benchmark package (offline build + --quick run) =="
benchmark/run.sh --quick >/dev/null
echo "benchmark/run.sh --quick OK"

# Output check over seeds: the benchmark's own check (every step's counts
# and the final world against the serial oracle) on forty GPU and twenty
# CPU arc seeds. One seed is not enough: a schedule-dependent fault can
# stay silent on most seeds (the ghost-tile activation hole showed on 3 of
# the 40 gpu_arc seeds here and nowhere else).
echo "== output check over seeds (gpu_arc 100-139, cpu_arc 100-119) =="
for sweep in gpu_arc:100:139 cpu_arc:100:119; do
    IFS=: read -r workload first last <<<"$sweep"
    for seed in $(seq "$first" "$last"); do
        result=$(benchmark/run.sh --workload "$workload" --seed "$seed" --seconds 0.3 \
            --trace 0 | tail -1)
        if [[ "$result" != *'"correct":true'* ]]; then
            echo "$workload seed $seed failed its output check: ${result:0:120}"
            exit 1
        fi
    done
    echo "$workload seeds $first-$last: output check OK"
done

echo "== size =="
echo "crates/**/*.rs lines: $(git ls-files 'crates/**/*.rs' | xargs cat | wc -l)"

echo "== all checks passed =="
