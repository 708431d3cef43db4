#!/usr/bin/env bash
# CI gate: formatting, lints, the tier-1 verify (release build + every
# workspace test), the bgp-check model-checking suites, a smoke run of a
# figure binary checking that its JSON report and its --trace probe
# artifacts parse, and the performance-regression gate (bench_gate)
# against the committed baseline.
set -euo pipefail
cd "$(dirname "$0")"

# Provenance for bench artifacts: bench_gate / bench_hot_path stamp this
# SHA (plus a monotonic sequence number) into their BENCH_*.json metadata
# so the report subsystem can order history without file mtimes.
BGP_GIT_SHA="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
export BGP_GIT_SHA

# Every smoke artifact is removed on exit — success, failure, or ^C — so a
# failing step can no longer leak ci_*.json/BENCH_*.json into the tree
# (the committed BENCH_baseline.json is not a smoke artifact and stays).
cleanup() {
  rm -f ci_fig6.json BENCH_fig6_phases.json BENCH_fig6_trace.json \
    BENCH_fig6_folded.txt BENCH_ci.json ci_sched_trace.json \
    ci_sched_trace.json.folded BENCH_hotpath.json ci_svc_soak.json
  rm -rf ci_report
  # Stray cross-process segments from an interrupted proc_cluster run.
  # (Worker processes need no kill here: they watch getppid and exit on
  # their own once the parent is gone.)
  rm -f /dev/shm/bgp-proc-*.seg "${TMPDIR:-/tmp}"/bgp-proc-*.seg 2>/dev/null || true
}
trap cleanup EXIT

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo clippy --features model (-D warnings)"
cargo clippy -p bgp-shmem -p bgp-smp -p bgp-sched --all-targets --features model -- -D warnings

# BGP_STRESS_FULL=1 restores the full stress-test iteration counts that
# bgp_shmem::testing::stress_iters would otherwise scale down on small
# (1-2 core) hosts. CI always runs the full volumes. --workspace runs the
# tier-1 root-package tests plus every crate's own unit and integration
# tests (the --features model suites run below).
echo "== tier-1: cargo build --release && cargo test -q --workspace (full stress volumes)"
cargo build --release
BGP_STRESS_FULL=1 cargo test -q --workspace

# The benchmark crate sits outside the workspace; its tests build it
# against the current crate APIs, so an API change that breaks the
# benchmark fails here.
echo "== perfbench: cargo test (benchmark crate against the current APIs)"
cargo test -q --offline --manifest-path perfbench/Cargo.toml

# Every paper-scale simulated time the benchmark pins (fig10 torus
# broadcasts, Table I allreduces at 2048 quad-mode nodes), bit for bit; a
# difference names the series and size that moved.
echo "== perfbench: --print-sim-reference matches perfbench/sim_reference.txt"
cargo run --release -q --offline --manifest-path perfbench/Cargo.toml -- --print-sim-reference |
  diff -u perfbench/sim_reference.txt -

echo "== model checker self-tests (bgp-check)"
cargo test -q -p bgp-check

echo "== model-checked shmem primitives (oracles + mutation self-tests)"
cargo test -q -p bgp-shmem --features model --test model
cargo test -q -p bgp-smp --features model --test model
cargo test -q -p bgp-sched --features model --test model

# Seeded-exploration smoke: the unmutated Bcast FIFO over 10,000 random
# schedules with a pinned seed (deterministic; part of the model suite,
# re-run here by name so a CI failure points straight at it).
echo "== seeded exploration smoke (10,000 random schedules)"
cargo test -q -p bgp-shmem --features model --test model bcast_ten_thousand_random_schedules

# The real-thread cluster runtime: 2 nodes x 2 ranks on every run (checked
# payloads + persistent-beats-spawn assertion + the node-aware allreduce
# family with its inter-node chunk probe); the full 2 x 4 acceptance shape
# (where node-aware must send strictly fewer chunks than the flat ring)
# when the stress budget is on.
echo "== smoke: cluster_real --small --check (2 nodes x 2 ranks, node-aware smoke)"
cargo run --release -p bgp-bench --bin cluster_real -- --small --check
if [ "${BGP_STRESS_FULL:-}" = "1" ]; then
  echo "== cluster_real --check (full 2 x 4 shape)"
  cargo run --release -p bgp-bench --bin cluster_real -- --check
fi

# The cross-process backend: fork 1 worker process (2 nodes total) over a
# real mmap'd segment, checked payloads on every operation including the
# bitwise thread-vs-process allreduce comparison.
echo "== smoke: proc_cluster --small --check (2 nodes, forked workers)"
cargo run --release -p bgp-bench --bin proc_cluster -- --small --check

# The nonblocking scheduler + service layer: checked payloads, the
# depth>1-beats-depth-1 assertion, and a Chrome trace carrying the
# sched.* service counters that must parse.
echo "== smoke: sched_real --small --check --trace (2 nodes x 2 ranks)"
cargo run --release -p bgp-bench --bin sched_real -- --small --check --trace ci_sched_trace.json
python3 -m json.tool ci_sched_trace.json >/dev/null

# The multi-tenant service layer: checked payloads on every op, Jain
# fairness >= 0.9 across equal-weight tenants, and flood-isolation (victim
# p99 under a flooding tenant within 2x its solo p99); the JSON report
# must parse.
echo "== smoke: svc_soak --small --check (3 tenants x 2 sessions)"
cargo run --release -p bgp-bench --bin svc_soak -- --small --check --json ci_svc_soak.json
python3 -m json.tool ci_svc_soak.json >/dev/null

echo "== smoke: fig6 --small --json parses"
cargo run --release -p bgp-bench --bin fig6 -- --small --json >ci_fig6.json
python3 -m json.tool ci_fig6.json >/dev/null

echo "== smoke: fig6 --small --trace artifacts parse"
cargo run --release -p bgp-bench --bin fig6 -- --small --trace >/dev/null
python3 -m json.tool BENCH_fig6_phases.json >/dev/null
python3 -m json.tool BENCH_fig6_trace.json >/dev/null

# The hot-path microbenchmark: per-stage latency decomposition of the
# slot-loan transport plus the two gated speedup ratios. --check verifies
# the staged and loaned paths compute identical results and (in release)
# that both ratios beat 1x; the JSON report must parse.
echo "== hot-path bench: bench_hot_path --small --check"
cargo run --release -p bgp-bench --bin bench_hot_path -- --small --check
python3 -m json.tool BENCH_hotpath.json >/dev/null

# The perf gate: the pinned suite at the small deterministic shape must
# match the committed BENCH_baseline.json within tolerance, its report
# must be valid JSON, and the gate must prove it *can* fail by flagging an
# injected 20% slowdown.
echo "== perf gate: bench_gate --small --check vs BENCH_baseline.json"
cargo run --release -p bgp-bench --bin bench_gate -- --small --check --label ci
python3 -m json.tool BENCH_ci.json >/dev/null

echo "== perf gate self-test: injected 20% slowdown is flagged"
cargo run --release -p bgp-bench --bin bench_gate -- --small --selftest

# The reporting subsystem: unit + golden-file tests (byte-stable SVG
# writer, typed ingestion errors per schema), then a full report build
# from the committed baseline plus the BENCH_ci.json the gate step just
# wrote. --check re-validates every emitted artifact: SVGs through the
# vendored XML well-formedness scanner, .folded files through the
# collapsed-stack format check, sweep JSONs through history ingestion.
echo "== report: bgp-report tests"
cargo test -q -p bgp-report
echo "== report: perf_report --check (history -> ci_report/)"
cargo run --release -p bgp-report --bin perf_report -- --out ci_report --check

echo "CI OK"
