#!/usr/bin/env bash
# A/A check: two alternating sets of runs of the same build must agree
# within the benchmark's own bounds.
#
#   benchmark/aa.sh [runs-per-set (default 5, at least 5)] [first seed (default 1)]
#
# Builds once, then for every workload alternates A and B runs (A1 B1 A2
# B2 ...). Run i of both sets uses seed first+i-1, so the seed-exact
# metrics must be bit-equal between the sets and the time metrics differ
# by machine noise only. Prints, per (workload, metric): both medians,
# their difference as a share of A's median against the bound, each set's
# quartiles, and the single-run range of each set. Exits 1 when a median
# moved by more than its bound or an exact metric differs.
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS=${1:-5}
FIRST=${2:-1}
if [ "$RUNS" -lt 5 ]; then
    echo "at least 5 runs per set" >&2
    exit 2
fi
OUT=benchmark/out/aa
rm -rf "$OUT"
mkdir -p "$OUT"

cargo build --release --offline --manifest-path benchmark/Cargo.toml
BIN="${CARGO_TARGET_DIR:-benchmark/target}/release/benchmark"
SECONDS_PER_RUN=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
WORKLOADS=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

echo "nproc $(nproc), $RUNS runs per set, seeds $FIRST..$((FIRST + RUNS - 1)), --seconds $SECONDS_PER_RUN"
for w in $WORKLOADS; do
    for i in $(seq 1 "$RUNS"); do
        for set in A B; do
            "$BIN" --workload "$w" --seed $((FIRST + i - 1)) --seconds "$SECONDS_PER_RUN" --trace 0 \
                > "$OUT/$set-$w-$i.txt"
            grep '^# nproc' "$OUT/$set-$w-$i.txt" | head -1 > "$OUT/$w.header" || true
        done
    done
    echo "$w: $(cat "$OUT/$w.header")"
done

python3 - "$OUT" "$RUNS" <<'EOF'
import json, statistics, sys
out, runs = sys.argv[1], int(sys.argv[2])
bench = json.load(open("BENCHMARK.json"))
# Pure functions of the seed: any difference between the sets is a harness bug.
EXACT = {"service_rate", "km_per_delivery", "wait_s_mean"}
bad = 0
def load(set_, w, i):
    with open(f"{out}/{set_}-{w}-{i}.txt") as f:
        return json.loads(f.read().strip().splitlines()[-1])
def quartiles(v):
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]
print(f"{'workload':16} {'metric':16} {'median A':>12} {'median B':>12} {'B vs A':>8} {'bound':>6}  "
      f"{'A q1..q3':>25} {'B q1..q3':>25} {'A range':>8} {'B range':>8}")
for w in (x["name"] for x in bench["workloads"]):
    a = [load("A", w, i) for i in range(1, runs + 1)]
    b = [load("B", w, i) for i in range(1, runs + 1)]
    for r in a + b:
        if not r["correct"] or r["failed"]:
            print(f"{w}: a run failed its output checks"); bad += 1
    for m in bench["end_to_end"]:
        name = m["name"]
        va = [r["metrics"][name]["value"] for r in a]
        vb = [r["metrics"][name]["value"] for r in b]
        ma, mb = statistics.median(va), statistics.median(vb)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        (a1, a3), (b1, b3) = quartiles(va), quartiles(vb)
        flag = ""
        if worse > m["bound"]:
            flag = "  <-- median moved by more than the bound"; bad += 1
        if name in EXACT and va != vb:
            flag += "  <-- exact metric differs between the sets"; bad += 1
        print(f"{w:16} {name:16} {ma:12.5g} {mb:12.5g} {worse*100:+7.2f}% {m['bound']*100:5.0f}%  "
              f"{a1:12.5g}..{a3:<11.5g} {b1:12.5g}..{b3:<11.5g} "
              f"{(max(va)-min(va))/ma*100:7.2f}% {(max(vb)-min(vb))/mb*100:7.2f}%{flag}")
print("A/A check", "FAILED" if bad else "passed")
sys.exit(1 if bad else 0)
EOF
