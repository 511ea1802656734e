#!/usr/bin/env bash
# Repo CI gate: formatting, lints (warnings are errors), full test suite.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

# Data-plane lint: host-keyed ordered maps/sets must not reappear in the
# hot path. The columnar plane keys everything by dense row/HostId;
# flow::reference is the one allowed home of the map-based spec.
# Boundary types (Grouping members, diffs, synth ground truth) keep
# their BTree collections *of* HostAddr values, but no new code may key
# a BTreeMap/BTreeSet container declaration on HostAddr outside the
# allowlist below.
echo "==> data-plane lint (no BTreeMap<HostAddr/BTreeSet<HostAddr outside flow::reference)"
DATAPLANE_ALLOW='crates/flow/src/reference.rs|crates/flow/src/connset.rs|crates/flow/src/anonymize.rs|crates/core/src/group.rs|crates/core/src/diff.rs|crates/core/src/correlate.rs|crates/core/src/services.rs|crates/core/src/stability.rs|crates/synth/src/model.rs|crates/cluster/src/metrics.rs|crates/aggregator/src/profile.rs|crates/aggregator/src/alerts.rs|crates/bench/src/bin/dataplane_bench.rs'
if grep -rnE 'BTree(Map|Set)<HostAddr' crates/*/src --include='*.rs' \
    | grep -vE "^($DATAPLANE_ALLOW):" ; then
  echo "ERROR: new host-keyed BTree container outside the data-plane allowlist." >&2
  echo "Use dense rows/HostId (flow::ConnectionSets) instead, or extend the" >&2
  echo "allowlist in scripts/ci.sh with a justification." >&2
  exit 1
fi

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test -q"
cargo test --workspace -q

# Telemetry must stay a pure observer: registry/span/event unit suites
# (incl. the Prometheus exposition conformance and event-journal ring
# property tests), the recorder-attached-vs-detached parity test, the
# metric/event-name lint (unique, snake_case, layer-prefixed), and the
# end-to-end decision-provenance test (every declared event type fires
# and every flight-recorder journal line parses).
echo "==> telemetry suite + name lint + provenance coverage"
cargo test -q -p telemetry
cargo test -q --test telemetry_parity --test metric_names --test event_journal

# Profiling must also stay a pure observer: the collapsed-stack
# exporter round-trips hostile span names (`;`, spaces, unicode) under
# proptest, profiler-attached outcomes are pinned bit-identical to
# detached runs across worker counts (inside telemetry_parity above),
# and the rcctl profile / serve /profile surfaces ride the facade's
# unit tests.
echo "==> profile suite (collapsed-stack round-trip + CLI/HTTP surfaces)"
cargo test -q --test profile_collapsed
cargo test -q -p role-classification --lib -- cli::tests serve::tests

# The storage layer must honor its durability contract on every
# backend: the shared conformance suite pins memory/appendlog/segment
# to one behavioral spec, the crash suite tears the tail off live files
# and requires recovery to lose at most the final record, and the
# schedules proptest drives random append/flush/crash/reopen
# interleavings against an in-memory model. The aggregator-side
# round-trip (checkpoint + journal + run history sharing one backend)
# rides in the crate test below.
echo "==> storage backend conformance + crash-recovery + schedules"
cargo test -q -p storage
cargo test -q -p aggregator --test crash_recovery

# Wire transport must shrug off a hostile network: the chaos suite runs
# the loopback-TCP pipeline through the deterministic fault proxy on a
# fixed seed matrix ([11, 23, 47], pinned inside the test) — lossy runs
# must produce outcomes bit-identical to the in-process baseline, and a
# blackholed probe must degrade the window and quarantine, never hang.
# The codec property tests fuzz the frame parser the same way the flow
# parsers are fuzzed.
echo "==> wire chaos suite (fixed seed matrix) + frame codec properties"
cargo test -q -p aggregator --test wire_chaos --test frame_codec_properties

# The kernel must be a pure throughput knob: its counts, the Engine's
# classifications, and every correlation are identical at any worker
# count and prune setting. The worker matrix (1, 2, 8 workers ×
# prune auto/off) runs in-process via EngineConfig — the engine crates
# no longer read ROLECLASS_THREADS, so one invocation covers the whole
# grid (see classification_is_bit_identical_across_worker_matrix and
# the pruned_* kernel properties).
echo "==> kernel + engine equivalence across the worker/prune matrix"
cargo test -q -p netgraph --test kernel_properties
cargo test -q -p roleclass --test engine_equivalence

# The dense correlator must equal its address-keyed reference bit for
# bit (fields, score bits, id-decision order, work counters) on every
# churned synth scenario, including the BigCompany case that is too
# slow for the debug suite above.
echo "==> correlation differential suite (release, incl. BigCompany)"
cargo test -q --release -p roleclass --test correlate_reference -- --include-ignored

# Advisory bench regression gate: fresh per-stage timings vs the
# committed BENCH_*.json artifacts, >25% slower gets flagged. Timing on
# shared hardware is noisy, so a flag warns but never fails the build;
# skip it entirely with CI_SKIP_BENCH_CHECK=1 when iterating.
if [ "${CI_SKIP_BENCH_CHECK:-0}" != "1" ]; then
  echo "==> bench regression check (advisory)"
  scripts/bench_check.sh \
    || echo "WARNING: bench_check flagged timings >25% over the committed baseline (advisory, not failing CI)"
fi

echo "CI OK"
