#!/usr/bin/env bash
# Acceptance check of the ledger on one commit: runs the benchmark's own
# unit tests, builds release, runs two full sets with the same seed, each an
# untraced and a traced run per workload, prints both sets side by side,
# and exits non-zero if a test fails, if any exact number (virtual time,
# bytes, counts, in either the end-to-end or the per-layer section)
# differs between the sets, or if any wall-time end-to-end metric
# disagrees beyond its bound.
#
#   ledger/check.sh [seed] [seconds]
#
# Results land in ledger/results/ (git-ignored), never at the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

seed="${1:-1}"
seconds="${2:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)}"
results=ledger/results
mkdir -p "$results"

# The root workspace does not know this package, so tier-1 `cargo test`
# skips its tests (stats, BENCHMARK.json in step with spec.rs, shadow
# exactness, Timed transparency): they run here.
cargo test --release --offline --quiet --manifest-path ledger/Cargo.toml

# The root workspace first (its `snapedge` binary feeds cli.cold_start_ms),
# then the benchmark's own package.
cargo build --release --offline --quiet
cargo build --release --offline --quiet --manifest-path ledger/Cargo.toml --bin ledger
ledger="${CARGO_TARGET_DIR:-ledger/target}/release/ledger"

workloads=(steady_delta steady_partial steady_deep fleet_real fleet_modeled)
status=0
for set in a b; do
  for w in "${workloads[@]}"; do
    for trace in 0 1; do
      echo "== set $set: $w (seed $seed, $seconds s, trace $trace)"
      out="$results/${set}_${w}_trace${trace}"
      "$ledger" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" \
        --out "$out.tsv" >"$out.log" || status=1
      tail -n 1 "$out.log" | cut -c1-160
    done
  done
done

for w in "${workloads[@]}"; do
  for trace in 0 1; do
    echo
    echo "== $w, trace $trace: set a vs set b"
    "$ledger" compare "$results/a_${w}_trace${trace}.tsv" "$results/b_${w}_trace${trace}.tsv" || status=1
  done
done
if [ "$status" -ne 0 ]; then
  echo "ledger check: FAILED (see $results/*.log)" >&2
else
  echo "ledger check: both sets agree"
fi
exit "$status"
