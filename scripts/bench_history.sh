#!/usr/bin/env bash
# Append one line to the root BENCH_history.jsonl from a full benchmark run.
#
#   benchmark/run.sh --out /tmp/results.json
#   scripts/bench_history.sh /tmp/results.json [LABEL]
#
# The line holds every end-to-end value per workload, keyed by commit (or
# LABEL) — the shape of benchmark/history.jsonl, kept at the root so that a
# performance change can record its numbers without editing benchmark/.
set -euo pipefail
if [ "$#" -lt 1 ] || [ "$#" -gt 2 ]; then
    echo "usage: $0 RESULTS.json [LABEL]" >&2
    exit 2
fi
cd "$(dirname "$0")/.."
python3 - "$@" <<'PY' >> BENCH_history.jsonl
import json, sys
doc = json.load(open(sys.argv[1]))
if doc.get("quick"):
    sys.exit("refusing to record a --quick run")
line = {
    "commit": sys.argv[2] if len(sys.argv) > 2 else doc["commit"],
    "seed": doc["seed"],
    "seconds": doc["seconds"],
    "workloads": {
        w: {m: e["value"] for m, e in entry["end_to_end"].items()}
        for w, entry in doc["workloads"].items()
    },
}
print(json.dumps(line, separators=(",", ":")))
PY
tail -n 1 BENCH_history.jsonl | cut -c1-200
