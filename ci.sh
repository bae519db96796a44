#!/usr/bin/env bash
# Full offline verification: format, lint, build, test.
# Tier-1 (ROADMAP.md) is the build + test pair; fmt/clippy run first so
# style and lint failures surface before the slow steps.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (workspace, warnings are errors; core, net, webapp and analyze deny panicking calls outside tests in their lib.rs)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== one offload path (scenario.rs outside its tests drives no link, pool or snapshot of its own)"
if sed '/#\[cfg(test)\]/,$d' crates/core/src/scenario.rs |
    grep -nE 'schedule_resilient|Link::new|ServerPool|\.capture\(|\.restore\('; then
    echo "scenario.rs is growing a second offload driver: route it through OffloadSession" >&2
    exit 1
fi

echo "== one attach path, one wire helper, one client ending (session.rs outside its tests)"
session_src=$(sed '/#\[cfg(test)\]/,$d' crates/core/src/session.rs)
resilient=$(grep -c 'schedule_resilient(' <<<"$session_src" || true)
links=$(grep -c 'Link::new(' <<<"$session_src" || true)
reports=$(grep -E 'RoundReport \{' <<<"$session_src" | grep -vc 'struct RoundReport' || true)
if [ "$resilient" -ne 1 ] || [ "$links" -ne 2 ] || [ "$reports" -ne 1 ]; then
    echo "session.rs repeats itself: $resilient schedule_resilient( (want 1), $links Link::new( (want 2: one uplink, one downlink), $reports RoundReport literals (want 1)" >&2
    exit 1
fi

echo "== one provisioning rule (session.rs fabricates no down link for a spent pre-send; scenario.rs neither builds nor provisions a session by halves; outside their tests)"
if grep -n 'NetError::LinkDown' <<<"$session_src"; then
    echo "session.rs reports a spent pre-send budget as a down link again: return Ok(false) and let provisioned() decide" >&2
    exit 1
fi
if sed '/#\[cfg(test)\]/,$d' crates/core/src/scenario.rs | grep -nE 'OffloadSession::build|\.provision\(\)'; then
    echo "scenario.rs carries its own provisioning rule again: OffloadSession::new is the one" >&2
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

echo "== the gate chain owns its switches (SnapshotOptions describes capture only; no gate switch is read off a snapshot or capture option)"
if grep -nE 'pub (verify|effects):' crates/webapp/src/snapshot.rs; then
    echo "snapshot.rs grew a gate switch: verify and effects are OffloadConfig fields" >&2
    exit 1
fi
if grep -rnE 'snapshot\.(verify|effects)|options\.verify' crates/*/src; then exit 1; fi

echo "== the verifier is a test oracle (the verify gate, its switch, its error and its verdict stay deleted)"
if grep -rnE 'verify_script|Gate::Verify|OffloadError::Verify|Verdict::Reject|cfg\.verify' crates/*/src; then exit 1; fi

echo "== snapshot HTML text is scanned, not stepped (no chained entity replaces or window searches in html.rs outside its tests; the attribute-cloning doc_attrs stays deleted)"
if sed '/#\[cfg(test)\]/,$d' crates/webapp/src/html.rs | grep -nE '\.replace\("&|\.windows\('; then
    echo "html.rs walks its text again: scan it with find_set" >&2
    exit 1
fi
if grep -rn 'fn doc_attrs' crates/*/src; then exit 1; fi

echo "== the typed-array element alphabet lives in f32text.rs (lexer.rs outside its tests reads only the list's framing: no quotient spelling)"
if sed '/#\[cfg(test)\]/,$d' crates/webapp/src/lexer.rs | grep -nF -e '(0/0)' -e '(1/0)' -e '(-1/0)'; then
    echo "lexer.rs spells a Float32Array element again: the element reader is f32text::scan_f32_element" >&2
    exit 1
fi

echo "== a script string is one shared allocation (webapp holds no string by value: literals, values and DOM attributes are Rc<str>)"
if grep -rn 'Str(String)' crates/webapp/src; then
    echo "crates/webapp/src copies a MiniJS string again: Token::Str, Expr::Str and JsValue::Str hold Rc<str>" >&2
    exit 1
fi

echo "== one link-health record, one planner (the bandwidth estimator, the per-server health wrapper and the adaptive controller stay folded into LinkHealth, ServerPool and PartitionOptimizer::plan)"
for gone in crates/net/src/estimator.rs crates/core/src/adaptive.rs; do
    if [ -e "$gone" ]; then
        echo "$gone is back: the estimate lives in LinkHealth, the runtime decision in PartitionOptimizer::plan" >&2
        exit 1
    fi
done
if grep -rnE 'BandwidthEstimator|AdaptiveOffloader|AdaptivePolicy|ServerHealth' crates tests examples; then exit 1; fi

echo "== the CLI is one flag table (main.rs outside its tests reads no flag by string and keeps no hand-written usage text)"
if sed '/#\[cfg(test)\]/,$d' crates/cli/src/main.rs | grep -nE '\.flag\("|bool_flag\(|const USAGE: &str'; then
    echo "cli/src/main.rs reads flags by name again: declare the flag in FLAGS and read it by Flag" >&2
    exit 1
fi

echo "== one switch matrix (the per-switch chaos-seed loops stay folded into tests/combinations.rs)"
if grep -rnE 'bit_identical_across_the_chaos_seed_matrix|replays_bit_for_bit_across_chaos_seeds|chaos_seed_matrix_is_correct_and_reproducible|meter_off_session_reports_zero_usage' tests crates; then
    echo "a per-switch chaos-seed loop is back: make it a case of tests/combinations.rs" >&2
    exit 1
fi

echo "== cargo build --release"
cargo build --offline --release --workspace

echo "== a flag the CLI does not read is an error (misspelt, misplaced and stray arguments exit 1 before any output, naming the token)"
refused() {
    local token=$1 code=0 stderr stdout
    shift
    stderr=$(target/release/snapedge "$@" 2>&1 >/dev/null) || code=$?
    stdout=$(target/release/snapedge "$@" 2>/dev/null) || true
    if [ "$code" -ne 1 ] || [ -n "$stdout" ] || ! grep -qF -- "$token" <<<"$stderr"; then
        echo "snapedge $*: exit $code with ${#stdout} bytes of stdout; want exit 1, no stdout, $token named on stderr" >&2
        exit 1
    fi
}
refused --predcit session --model agenet --rounds 2 --predcit true
refused --balance session --model agenet --rounds 2 --balance true
refused stray session --model agenet --rounds 2 stray
refused --model analyze --model agenet
# A local round reports the server name `client`, so no fleet server may take it.
refused client run --model tiny_cnn --servers 'client;edge-b'

echo "== the modeled fleet refuses, by name, the fields it does not model and a client count no memory holds; real sessions take them"
modeled=(fleet --model agenet --clients 2 --rounds 2)
refused retry "${modeled[@]}" --retry attempts=3,deadline=5
refused up_faults "${modeled[@]}" --fault-plan 'down@0..50'
refused predict "${modeled[@]}" --predict true
refused meter "${modeled[@]}" --meter ops=10
refused clients fleet --model agenet --clients 18446744073709551615 --rounds 2
target/release/snapedge fleet --model agenet --clients 100 \
    --servers "edge-a,mbps=30,meter=ops=5000+slice=10;edge-b,mbps=20" --real true >/dev/null

echo "== a failed pre-send degrades to local (session, fleet --real and run exit 0, session offloads again in round 2); strict fail-fast is one error line"
faults=(--fault-plan 'corrupt@4..5.5' --retry 'attempts=3,deadline=5')
session_smoke=$(target/release/snapedge session --model agenet --rounds 3 "${faults[@]}")
if ! awk '$1 == 1 && $2 == "local" { a = 1 } $1 == 2 && $2 == "full" { b = 1 } END { exit !(a && b) }' <<<"$session_smoke"; then
    echo "snapedge session with a failed pre-send: want round 1 local and round 2 a full snapshot, got:" >&2
    echo "$session_smoke" >&2
    exit 1
fi
target/release/snapedge fleet --real true --model agenet --rounds 3 "${faults[@]}" >/dev/null
run_smoke=$(target/release/snapedge run --model agenet --strategy after-ack "${faults[@]}")
grep -q "completed locally" <<<"$run_smoke"
strict_code=0
strict_stderr=$(target/release/snapedge session --model agenet --rounds 3 --fault-plan 'corrupt@4..5.5' 2>&1 >/dev/null) || strict_code=$?
if [ "$strict_code" -ne 1 ] || [ "$(grep -c '' <<<"$strict_stderr")" -ne 1 ] || ! grep -q '^error: net: ' <<<"$strict_stderr"; then
    echo "strict fail-fast session: exit $strict_code, stderr:" >&2
    echo "$strict_stderr" >&2
    echo "want exit 1 and exactly one 'error: net: ' line" >&2
    exit 1
fi

echo "== cargo test"
cargo test --offline -q --workspace

echo "== a session keeps only its live heap and its image about once a side (release, where LLVM may elide allocations: the copy gates, flat growth, and 2 000 3rd_pool rounds growing < 20 MB)"
cargo test --offline --release -q -p snapedge-integration --test session_memory -- --include-ignored

echo "== float printer = Display on 1/256 of every finite f32 (a wrong table entry or tie rule fails here, not as a fixture hash)"
PARTS=256 cargo test --offline --release -q -p snapedge-webapp --lib -- --ignored every_finite_pattern_prints_as_display

echo "== float reader = str::parse on the printed text of 1/256 of every finite f32 (value bits, nesting and end index; a wrong interval end fails here)"
PARTS=256 cargo test --offline --release -q -p snapedge-webapp --lib -- --ignored every_finite_pattern_reads_back

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

echo "== determinism lint (wall-clock, hash-iter, collect-in-loop, string-keyed-map)"
cargo run --offline --release -p snapedge-lint

echo "== static snapshot verifier smoke (the two paper app sources)"
cargo run --offline --release -p snapedge-cli --bin snapedge -- analyze --all-apps true

echo "== effect analysis smoke (the paper app sources' floors and nondeterminism report)"
cargo run --offline --release -p snapedge-cli --bin snapedge -- analyze --all-apps true --effects true

echo "ci.sh: all green"
