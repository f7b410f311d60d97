#!/usr/bin/env bash
# Compare the count-type ledger rows of two benchmark results across commits.
#
#   scripts/ledger_counts.sh A.json B.json
#
# A and B are each either the output of `benchmark/run.sh --workload W
# --seed S --seconds T --trace 1` (the result line is the last line) or a
# results file written by `benchmark/run.sh --out FILE`. Every per-layer
# metric whose unit is `count` or `B` — work done, not time taken — and the
# one modelled time computed from them (`gpusim.model_sim_s`) must be
# identical in both; prints each difference and exits 1 if there is one.
# `benchmark/run.sh selfcheck` checks this within one tree only; run this on
# the parent's and the change's results whenever a change must leave the
# modelled work (gpusim.*, pgas.*, active sets) untouched.
set -euo pipefail
if [ "$#" -ne 2 ]; then
    echo "usage: $0 A.json B.json" >&2
    exit 2
fi
python3 - "$1" "$2" <<'PY'
import json, sys

def load(path):
    text = open(path).read()
    try:
        doc = json.loads(text)
    except ValueError:
        doc = json.loads([l for l in text.splitlines() if l.strip()][-1])
    if "workloads" in doc:  # a --out results file
        return {w: e.get("per_layer", {}) for w, e in doc["workloads"].items()}
    return {"(result line)": doc["metrics"]}  # one workload's --trace 1 line

def counts(layer):
    return {k: v["value"] for k, v in layer.items()
            if isinstance(v, dict)
            and (v.get("unit") in ("count", "B") or k == "gpusim.model_sim_s")}

a, b = load(sys.argv[1]), load(sys.argv[2])
if a.keys() != b.keys():
    sys.exit(f"different workloads: {sorted(a)} vs {sorted(b)}")
diffs = rows = 0
for w in a:
    ca, cb = counts(a[w]), counts(b[w])
    for name in sorted(ca.keys() | cb.keys()):
        rows += 1
        if ca.get(name) != cb.get(name):
            diffs += 1
            print(f"{w}: {name}: {ca.get(name)} != {cb.get(name)}")
if rows == 0:
    sys.exit("no count rows found: were the runs made with --trace 1?")
print(f"{rows} count rows compared, {diffs} differ")
sys.exit(1 if diffs else 0)
PY
