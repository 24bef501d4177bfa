#!/usr/bin/env bash
# Tier-1 gate (see ROADMAP.md): build, tests, lints, formatting.
# Run from the repo root; fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> search_throughput --smoke (validity + zero duplicates + throughput floor)"
cargo run --release -p ruby-bench --bin search_throughput -- --smoke

echo "==> cargo test -q"
cargo test -q

echo "==> interleaving checker (bounded schedule exploration)"
cargo test -q -p ruby-search interleave

echo "==> resilience smoke (kill/resume parity + supervised worker panic)"
cargo run --release -q -p ruby-bench --bin resilience_smoke --features failpoints
cargo test -q -p ruby-search --features failpoints
cargo test -q -p ruby-store --features failpoints
cargo test -q -p ruby-telemetry --features failpoints

echo "==> serve smoke (warm hit from the store, >100x faster, clean SIGTERM)"
serve_dir=$(mktemp -d)
trap 'rm -rf "$serve_dir"' EXIT
# A GEMM gives the cold query a real search to run: the toy rank-1
# space holds only a few hundred mappings, so its cold answer is too
# cheap for the 100x ratio to keep any margin.
query_line=$(./target/release/ruby query --arch toy:16,1024 --workload gemm:64,64,64 \
    --budget quick --print)
# exec so SERVE_PID is the server itself, not a wrapping subshell.
coproc SERVE { exec ./target/release/ruby serve --store "$serve_dir/store.log"; }
printf '%s\n%s\n' "$query_line" "$query_line" >&"${SERVE[1]}"
IFS= read -r -t 60 cold_resp <&"${SERVE[0]}"
IFS= read -r -t 60 warm_resp <&"${SERVE[0]}"
grep -q '"source":"search"' <<<"$cold_resp"
grep -q '"source":"store"' <<<"$warm_resp"
cold_us=$(sed -n 's/.*"micros":\([0-9]*\).*/\1/p' <<<"$cold_resp")
warm_us=$(sed -n 's/.*"micros":\([0-9]*\).*/\1/p' <<<"$warm_resp")
if [ "$cold_us" -lt $(( warm_us * 100 )) ]; then
    echo "warm hit not >100x faster: cold=${cold_us}us warm=${warm_us}us" >&2
    exit 1
fi
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
# The store survives the shutdown: a fresh server answers warm.
reopened=$(printf '%s\n' "$query_line" | ./target/release/ruby serve --store "$serve_dir/store.log")
grep -q '"source":"store"' <<<"$reopened"
grep -q 'store holds 1 mappings' <<<"$reopened"

echo "==> chaos smoke (failpoint storm: overload suite, chaos harness, SIGTERM under faults)"
cargo test -q -p ruby-server --features failpoints
cargo test -q -p ruby-cli --features failpoints
cargo build -q -p ruby-cli --features failpoints
chaos_dir=$(mktemp -d)
trap 'rm -rf "$serve_dir" "$chaos_dir"' EXIT
RUBY_FAILPOINTS="server.worker=p:0.5:delay:30,serve.respond=p:0.2:err" \
    ./target/debug/ruby serve --store "$chaos_dir/store.log" \
    --socket "$chaos_dir/mapper.sock" --workers 2 --queue-depth 2 \
    >"$chaos_dir/summary.txt" &
CHAOS_PID=$!
answered=0
for _ in 1 2 3 4 5 6; do
    if ./target/debug/ruby query --arch toy:16,1024 --workload rank1:113 \
        --budget quick --socket "$chaos_dir/mapper.sock" >>"$chaos_dir/answers.txt"; then
        answered=$(( answered + 1 ))
    fi
done
if [ "$answered" -lt 1 ]; then
    echo "chaos smoke: every query lost under a p:0.2 drop rate" >&2
    exit 1
fi
kill -TERM "$CHAOS_PID"
wait "$CHAOS_PID"
grep -q 'served .* queries' "$chaos_dir/summary.txt"
grep -q 'resilience:' "$chaos_dir/summary.txt"
if [ -e "$chaos_dir/mapper.sock" ]; then
    echo "chaos smoke: socket file leaked past shutdown" >&2
    exit 1
fi
leaks=$(find "$chaos_dir" -name '*.tmp' -o -name '*.quarantine')
if [ -n "$leaks" ]; then
    echo "chaos smoke: tmp/quarantine litter leaked: $leaks" >&2
    exit 1
fi

echo "==> ruby-lint (--json, <5s budget, schema.lock committed + current)"
git ls-files --error-unmatch crates/lint/schema.lock >/dev/null
lint_start=$(date +%s)
cargo run --release -q -p ruby-lint -- --json --out target/ruby-lint.json
lint_elapsed=$(( $(date +%s) - lint_start ))
if [ "$lint_elapsed" -ge 5 ]; then
    echo "ruby-lint took ${lint_elapsed}s (budget: <5s)" >&2
    exit 1
fi
grep -q '"schema": 1' target/ruby-lint.json

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "tier-1: all green"
