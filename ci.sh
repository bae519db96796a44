#!/usr/bin/env bash
# Full offline verification: format, lint, build, test.
# Tier-1 (ROADMAP.md) is the build + test pair; fmt/clippy run first so
# style and lint failures surface before the slow steps.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (workspace, warnings are errors)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo clippy (hot-path crates forbid unwrap outside tests)"
cargo clippy --offline --no-deps -p snapedge-core -p snapedge-webapp --lib -- \
    -D warnings -D clippy::unwrap_used

echo "== one offload path (scenario.rs outside its tests drives no link, pool or snapshot of its own)"
if sed '/#\[cfg(test)\]/,$d' crates/core/src/scenario.rs |
    grep -nE 'schedule_resilient|Link::new|ServerPool|\.capture\(|\.restore\('; then
    echo "scenario.rs is growing a second offload driver: route it through OffloadSession" >&2
    exit 1
fi

echo "== two delta-capture paths (write-set-pruned capture stays deleted)"
if grep -rnE 'CaptureHints|set_capture_hints|pruned_globals' crates/*/src; then exit 1; fi

echo "== effect analysis is two gates (write sets, ceilings, the cache and the contention simulator stay deleted)"
if grep -rnE 'round_writes|EffectCache|max_new_cells|simulate_contention' crates/*/src; then exit 1; fi

echo "== float text is printed, not cached (the render cache and the heap versions it was keyed by stay deleted)"
if grep -rnE 'RenderCache|render_cache|HEAP_GENERATION' crates/*/src; then exit 1; fi

echo "== one gate chain, one migration (the five gate kinds, the decide_* doors, the latency predictor and the mirrored migrate/charge helpers stay deleted)"
if grep -rnE 'EffectVerdict|BalanceDecision|ProactiveLocal|EventKind::Predict|decide_unreachable|LatencyPredictor|fn migrate_down|fn charge_(capture|restore)_' crates/*/src; then exit 1; fi

echo "== paper figures are rows (one figures binary beside the two wall-budget smokes; the per-figure table printer and the second Gantt renderer stay deleted)"
if ls crates/bench/src/bin | grep -vxE 'figures\.rs|fleet_scale\.rs|fleet_balance\.rs'; then
    echo "crates/bench/src/bin/ grew a binary: a figure is a function in crates/bench/src/figures.rs" >&2
    exit 1
fi
if grep -rnE 'print_table|mod timeline|core::timeline' crates/*/src; then exit 1; fi

echo "== the engine log is data (no String per event, no text-returning event_log)"
if grep -nE 'event_log\.push\(format!|-> &\[String\]' crates/core/src/engine.rs; then
    echo "engine.rs formats its log as it runs: push an EngineEvent, render in event_lines()" >&2
    exit 1
fi

echo "== fleet scheduling policies are engine switches only (no config knobs, no run-loop borrow bundles), one resilient scheduler, a single-threaded tracer"
if grep -nE 'pub (fn )?(balance|fair_share|batch_window)\b' crates/core/src/config.rs; then
    echo "config.rs grew a fleet policy knob: balance, fair share and batching are Engine switches" >&2
    exit 1
fi
if grep -rnE 'cfg\.(balance|fair_share|batch_window)' crates/*/src; then exit 1; fi
if grep -nE 'struct (DrainState|GrantStats)|too_many_arguments' crates/core/src/engine.rs; then
    echo "engine.rs is bundling borrows again: per-client and per-server state lives in RunState's slots" >&2
    exit 1
fi
if grep -rn 'schedule_resilient_traced' crates/*/src; then exit 1; fi
if grep -n 'Mutex' crates/trace/src/tracer.rs; then exit 1; fi

echo "== cargo build --release"
cargo build --offline --release --workspace

echo "== cargo test"
cargo test --offline -q --workspace

echo "== float printer = Display on 1/256 of every finite f32 (a wrong table entry or tie rule fails here, not as a fixture hash)"
PARTS=256 cargo test --offline --release -q -p snapedge-webapp --lib -- --ignored every_finite_pattern_prints_as_display

echo "== benchmark package (ledger/ is outside the workspace: build it, run its tests, smoke steady_deep and the steady_partial fast path)"
cargo build --release --offline --manifest-path ledger/Cargo.toml
cargo test --release --offline -q --manifest-path ledger/Cargo.toml
ledger_smoke=$(cargo run --release --offline --quiet --manifest-path ledger/Cargo.toml --bin ledger -- \
    --workload steady_deep --seed 1 --seconds 1 --trace 0)
grep -q '"correct": true' <<<"$ledger_smoke"
# The typed-array fast path is chosen by the shape of the wire text: if the
# printer and the scanner drift apart, the only other symptom is a slow round.
partial_smoke=$(cargo run --release --offline --quiet --manifest-path ledger/Cargo.toml --bin ledger -- \
    --workload steady_partial --seed 1 --seconds 1 --trace 1)
grep -q '"correct": true' <<<"$partial_smoke"
partial_tokens=$(awk '$1 == "webapp.lexer.tokens" { print $2 }' <<<"$partial_smoke")
if [ -z "$partial_tokens" ] || [ "$partial_tokens" -ge 1000 ]; then
    echo "steady_partial uplink lexes into ${partial_tokens:-no} tokens: the scanned Float32Array literal fell off the wire text" >&2
    exit 1
fi

echo "== meter exhaustion CLI smoke (capped primary fails over, run still succeeds)"
meter_smoke=$(cargo run --offline --release -p snapedge-cli --bin snapedge -- run \
    --model tiny_cnn --servers "edge-a,meter=ops=1;edge-b")
grep -q "edge-b" <<<"$meter_smoke"

echo "== fleet scale smoke (10k clients under a wall-clock budget)"
cargo run --offline --release -p snapedge-bench --bin fleet_scale

echo "== balancing micro (report-only: rotation vs queue-aware p99 on a skewed fleet)"
cargo run --offline --release -p snapedge-bench --bin fleet_balance

echo "== determinism lint (wall-clock, hash-iter, unwrap-hot-path, collect-in-loop, string-keyed-map)"
cargo run --offline --release -p snapedge-lint

echo "== static snapshot verifier smoke (paper apps + live captures)"
cargo run --offline --release -p snapedge-cli --bin snapedge -- analyze --all-apps true

echo "== effect analysis smoke (floor report + effects-on session per model)"
cargo run --offline --release -p snapedge-cli --bin snapedge -- analyze --all-apps true --effects true

echo "ci.sh: all green"
