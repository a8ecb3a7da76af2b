#!/usr/bin/env bash
# Full local CI for the workspace: formatting, lints, release build,
# tests (unit, property, integration, doc), the benchmark crate and the
# bench/replay/serve/chaos gates.
# Mirrors .github/workflows/ci.yml so a green ./ci.sh means a green PR.
set -euo pipefail

cd "$(dirname "$0")"

run() {
    echo
    echo "==> $*"
    "$@"
}

run cargo fmt --all --check
# Clippy is also the determinism and panic gate (clippy.toml, the critical
# crate roots' #![deny] lines and reasoned #[expect]s; ARCHITECTURE.md,
# "Determinism and panic policy"). tests/lint_policy.rs checks the wiring.
run cargo clippy --workspace --all-targets -- -D warnings
run cargo build --release
run cargo test -q
# Doc tests again, explicitly: `cargo test -q` runs them for the library
# crates, but a dedicated invocation makes a doctest-only breakage obvious
# in the log instead of burying it mid-suite.
run cargo test --doc -q
# Doc build doubles as the missing_docs assertion: the workspace
# [workspace.lints] table turns on missing_docs for every non-compat
# crate, so -D warnings fails this step when a public item loses its
# documentation.
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
# The benchmark (BENCHMARK.json) lives in benchmark/, a workspace of its
# own that no step above compiles: a changed signature it calls would
# break it unnoticed. Run its unit tests, then every workload at smoke
# size; the exit code carries the output checks (wait/detour limits rider
# by rider, books balance, pass-to-pass digests, workers 2 == 1 — one
# engine compared with itself until the benchmark drops the check —
# serve == offline replay).
run cargo test --offline --manifest-path benchmark/Cargo.toml
mkdir -p target
run bash -c 'set -o pipefail; cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- --workload all --seed 1 --smoke | tee target/bench-smoke.txt'
# The smoke run's four pass digests, pinned: a change that decides what
# its parent decided leaves them equal. A PR that must move a digest edits
# the literal in check-smoke-digests.sh and says why in CHANGES.md.
run ./check-smoke-digests.sh target/bench-smoke.txt
# bench-smoke: hub-label builds must match Dijkstra ground truth — in
# distance, and in the vertex sequence of every path unpacked straight
# from the labels (HubLabels::path, not the oracle that would fall back
# to Dijkstra) — and round-trip through the on-disk format; a distance
# miss through the oracle (one label scanned against the other's, kept
# spread by hub rank) must equal the label merge bit for bit; build time, the cost of a label unpack and
# of the Dijkstra it replaced, and of a distance miss (endpoints that
# never repeat, and runs sharing one) beside the merge, are recorded, not
# gated (timing ratios sit on their threshold on small shared runners;
# label size is pinned by a unit test instead); the sparse MIP solver
# must agree with the frozen dense baseline and beat it >= 10x at 3 trips
# on board.
# BENCH_hublabel.json and BENCH_mip.json record the numbers (CI uploads
# both artifacts).
run cargo run --release -p rideshare-bench --bin bench_summary -- --scale smoke --hublabel-out BENCH_hublabel.json --mip-out BENCH_mip.json
# Replay gate: the paper_replay harness at quick scale over a truncated
# stream. The first invocation exercises the persisted-oracle store
# (build -> save -> reload-verify), the interrupt-at-midpoint + resume
# experiment and the pruning identity check (--verify-pruning replays a
# prefix with slack screening disabled and asserts every observable
# matches), gating on a bit-identical final report, zero guarantee
# violations, a minimum dispatch throughput (--min-trips-per-sec — the
# committed BENCH_replay.json runs ~10x above this floor, so only a
# real regression trips it) and the pruning win itself
# (--max-evaluated-fraction 0.2, i.e. at least a 5x reduction; the
# measured quick-scale fraction is ~0.002); the second proves a cold
# process reloads
# the persisted labels instead of rebuilding. Local runs write under
# target/ so they never clobber the committed paper-scale
# BENCH_replay.json (the full day takes hours to regenerate); the
# GitHub workflow writes BENCH_replay.json in its ephemeral checkout
# because that is the path the artifact upload step collects.
run cargo run --release -p rideshare-bench --bin paper_replay -- --scale quick --max-trips 2000 --verify-resume --verify-pruning --min-trips-per-sec 50 --max-evaluated-fraction 0.2 --fresh --out target/BENCH_replay_ci.json --checkpoint target/replay-ci.ckpt
run cargo run --release -p rideshare-bench --bin paper_replay -- --scale quick --max-trips 200 --require-reloaded --fresh --out target/BENCH_replay_reload.json --checkpoint target/replay-ci-reload.ckpt
# Serve gate: the deterministic truncated capacity sweep (fixed ladder,
# synthetic cost model). Fails on any guarantee violation at any offered
# load or when mean admission latency is not monotone in load. Writes the
# BENCH_serve.json artifact (CI uploads it).
run cargo run --release -p rideshare-bench --bin serve_sweep -- --smoke --out target/BENCH_serve_ci.json
# Chaos gate: deterministic fault injection over the same serve stack —
# seeded oracle spikes and torn checkpoint writes across a
# calm/faulted/overload rung ladder, a kill-at-tick-25 crash recovered
# from checkpoint + journal, and an injected label-store IO fault. Fails
# on any accounting drift, any guarantee violation under faults, a ladder
# that never degrades under overload (or degrades when calm), a recovered
# report that is not bit-identical to the uninterrupted run, or a store
# fault that does not surface its fallback reason.
run cargo run --release -p rideshare-bench --bin chaos_smoke -- --out target/BENCH_chaos_ci.json

echo
echo "CI OK"
