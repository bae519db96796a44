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

echo "== source rules (snapedge-lint: determinism, and every deleted path stays deleted; a rule whose file is gone fails)"
cargo run --offline --release -q -p snapedge-lint

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

echo "== the plan gate prices the session's own cut (agenet offloaded at 3rd_pool loses to local execution, so --predict keeps it local)"
cut_smoke=$(target/release/snapedge run --model agenet --strategy partial --cut 3rd_pool --predict true)
if ! grep -qE '^predict: +local' <<<"$cut_smoke"; then
    echo "snapedge run at 3rd_pool with --predict true: want a 'predict: local' line, got:" >&2
    echo "$cut_smoke" >&2
    exit 1
fi

echo "== the output does not depend on the core count (googlenet's 1st_pool map is long enough to be split across cores; on one CPU it is not)"
if ! command -v taskset >/dev/null; then
    echo "taskset is not installed: this step needs it to run the CLI on one CPU" >&2
    exit 1
fi
one_cpu=$(taskset -pc $$ | sed 's/.*: //; s/[,-].*//')
cores_dir=$(mktemp -d)
trap 'rm -rf "$cores_dir"' EXIT
split_run=(run --model googlenet --strategy partial --cut 1st_pool --trace)
target/release/snapedge "${split_run[@]}" "$cores_dir/all.jsonl" >"$cores_dir/all.out"
taskset -c "$one_cpu" target/release/snapedge "${split_run[@]}" "$cores_dir/one.jsonl" >"$cores_dir/one.out"
if ! cmp -s "$cores_dir/all.jsonl" "$cores_dir/one.jsonl" \
    || ! diff <(grep -v '^trace:' "$cores_dir/all.out") <(grep -v '^trace:' "$cores_dir/one.out") >&2; then
    echo "snapedge ${split_run[*]}: the trace or the report differs between every CPU and CPU $one_cpu alone" >&2
    exit 1
fi

echo "== a closed stdout ends a command quietly (sweep | head -1: exit 0, nothing on stderr)"
pipe_code=0
pipe_stderr=$( { target/release/snapedge sweep --model agenet | head -1 >/dev/null; } 2>&1) || pipe_code=$?
if [ "$pipe_code" -ne 0 ] || [ -n "$pipe_stderr" ]; then
    echo "snapedge sweep --model agenet | head -1: exit $pipe_code, stderr:" >&2
    echo "$pipe_stderr" >&2
    exit 1
fi

echo "== any server name is legal: a fleet whose primary is named client runs and prints its result"
client_smoke=$(target/release/snapedge run --model tiny_cnn --servers 'client;edge-b')
grep -q '^result:' <<<"$client_smoke"

echo "== the modeled fleet refuses, by name, the fields it does not model and a client count no memory holds; real sessions take them"
modeled=(fleet --model agenet --clients 2 --rounds 2)
refused retry "${modeled[@]}" --retry attempts=3,deadline=5
refused up_faults "${modeled[@]}" --fault-plan 'down@0..50'
refused predict "${modeled[@]}" --predict true
refused meter "${modeled[@]}" --meter ops=10
refused clients fleet --model agenet --clients 18446744073709551615 --rounds 2
target/release/snapedge fleet --model agenet --clients 100 \
    --servers "edge-a,mbps=30,meter=ops=5000+slice=10;edge-b,mbps=20" --real true >/dev/null

echo "== a uniform fleet spreads its clients (modeled and real fleets each put rounds on both of two tied servers)"
for real in false true; do
    placed=$(target/release/snapedge fleet --model agenet --clients 4 --duration 20 --seed 1 --servers 'a;b' --real "$real")
    if ! awk '$1 == "server:" { n++; if ($3 + 0 == 0) idle++ } END { exit !(n == 2 && !idle) }' <<<"$placed"; then
        echo "snapedge fleet --real $real on 'a;b': want rounds on both servers, got:" >&2
        echo "$placed" >&2
        exit 1
    fi
done

echo "== README's failover example fails over (edge-a is down from 0 s: every round runs on edge-b)"
failover=$(target/release/snapedge session --model agenet --rounds 5 --retry default \
    --servers "edge-a,mbps=30,faults=down@0..3600;edge-b,mbps=20;edge-c,mbps=10")
if ! awk '$1 ~ /^[0-9]+$/ { n++; if ($6 != "edge-b") off++ } END { exit !(n == 5 && !off) }' <<<"$failover"; then
    echo "snapedge session with edge-a down: want 5 rounds on edge-b, got:" >&2
    echo "$failover" >&2
    exit 1
fi

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

echo "== event queue = a sorted set over a million random push/pop/peek calls 10 000 deep (equal times, pushes before the last pop, saturated times)"
cargo test --offline --release -q -p snapedge-net --lib -- --ignored deep_random_interleavings_pop_in_sorted_order

echo "== the eight-lane image generator = the serial LCG on 1 000 seeds x 35 000 bytes"
cargo test --offline --release -q -p snapedge-core --lib -- --ignored lanes_draw_the_serial_stream_for_a_thousand_seeds

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

echo "== balancing micro (report-only: unbalanced vs queue-aware placement p99 on a skewed fleet)"
cargo run --offline --release -p snapedge-bench --bin fleet_balance

echo "== static snapshot verifier smoke (the two paper app sources)"
cargo run --offline --release -p snapedge-cli --bin snapedge -- analyze --all-apps true

echo "== effect analysis smoke (the paper app sources' floors and nondeterminism report)"
cargo run --offline --release -p snapedge-cli --bin snapedge -- analyze --all-apps true --effects true

echo "ci.sh: all green"
