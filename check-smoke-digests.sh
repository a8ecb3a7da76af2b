#!/usr/bin/env bash
# Checks the pass digests that the benchmark prints for seed 1 against
# pinned literals: the smoke run's by default, the full-size run's with
# --full.
#
#   cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- \
#       --workload all --seed 1 --smoke | tee target/bench-smoke.txt
#   ./check-smoke-digests.sh target/bench-smoke.txt
#
#   cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- \
#       --workload all --seed 1 --seconds 1 | tee target/bench-full.txt
#   ./check-smoke-digests.sh --full target/bench-full.txt
#
# Smoke size keeps the kinetic trees shallow; the full-size workloads grow
# trees of a few hundred nodes, whose wide levels only they exercise. The
# digest does not depend on --seconds, which only sets how many passes run.
#
# By default a change decides exactly what its parent decided, so these
# digests do not move. A change that must move one edits its literal here
# and says why in CHANGES.md.
set -euo pipefail

smoke=(
    replay_dense=0xa428558a73bc0e96
    replay_sparse=0x526ba7c9edc1a362
    replay_parallel=0x1b2007b5419901de
    serve_ticks=0x4fdb21a1a40f6155
)
full=(
    replay_dense=0xb74dbff1a66be10b
    replay_sparse=0xc3ddfa22b30a74b8
    replay_parallel=0x53227e466bc66051
    serve_ticks=0xcc611df22763bdc5
)

pinned=("${smoke[@]}")
if [[ "${1:-}" == --full ]]; then
    pinned=("${full[@]}")
    shift
fi
report=${1:?usage: check-smoke-digests.sh [--full] <benchmark stdout>}
status=0
for pin in "${pinned[@]}"; do
    workload=${pin%%=*}
    want=${pin#*=}
    # "# workload <name> seed ..." opens a workload's block; its
    # "# ... digest <hex> on every pass" line follows.
    got=$(awk -v w="$workload" '
        $2 == "workload" { current = $3 }
        current == w { for (i = 1; i < NF; i++) if ($i == "digest") { print $(i + 1); exit } }
    ' "$report")
    if [[ "$got" == "$want" ]]; then
        echo "digest pin: $workload $got"
    else
        echo "digest pin: $workload printed ${got:-no digest}, pinned $want" >&2
        status=1
    fi
done
exit "$status"
