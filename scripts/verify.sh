#!/usr/bin/env bash
# Full verification gate: the tier-1 build and tests, rustfmt, clippy, plus
# what `cargo test` does not run (the bench allocation gate, a quick-mode
# smoke run of every figure/table binary and the perfbench smoke). The workspace is fully path-local, so everything runs
# with --offline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check
# perfbench/ has its own [workspace], which `--all` does not reach.
cargo fmt --manifest-path perfbench/Cargo.toml -- --check

# The root manifest's default-members cover every workspace crate, so
# these are the tier-1 commands. The tests include the golden digests,
# the fast-path/reference property tests (whose test-only references
# fail this build if a test stops calling them) and the ladder-lint gates
# (workspace_clean.rs, cli.rs's fixture-corpus exit codes).
echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test -q"
cargo test -q --offline

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings
cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings

# The criterion-shim benches double as gates: trace_overhead asserts the
# write hot path performs zero allocations with tracing disabled.
echo "==> bench smoke + tracing allocation gate"
cargo test -q -p ladder-bench --benches --offline

# Every ladder-bench binary must at least complete a scaled-down run:
# this catches panics in experiment drivers that unit tests don't reach
# (arg parsing, figure assembly, the event kernel under each scheme).
echo "==> smoke: ladder-bench binaries (--quick --jobs 2)"
for bin in fig2 fig4b fig11 fig15 main_eval lifetime variability tables \
           ablations crash mna_table extension faults interleave service \
           lifetime_campaign; do
    echo "  -> $bin"
    ./target/release/"$bin" --quick --jobs 2 >/dev/null
done

# Fig. 15 at its committed scale must reproduce results/fig15.txt byte
# for byte (the file's first three lines are cargo's build header).
echo "==> fig15 --instructions 1000000 vs results/fig15.txt"
./target/release/fig15 --instructions 1000000 2>/dev/null \
    | diff <(tail -n +4 results/fig15.txt) -

# Repository benchmark smoke: every perfbench workload must run once at
# --quick scale with its stats fingerprint matching the committed one
# ("correct": true, exit 0), and the harness's own unit tests must pass —
# so a break in the public API perfbench calls fails this gate too.
echo "==> perfbench smoke: --quick fingerprints + harness tests"
cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --quick >/dev/null
cargo test -q --offline --manifest-path perfbench/Cargo.toml >/dev/null

# The --trace flag must produce valid-looking chrome://tracing JSON.
echo "==> trace smoke (--trace)"
trace_out=$(mktemp)
./target/release/fig2 --quick --jobs 2 --trace "$trace_out" >/dev/null 2>&1
grep -q '"traceEvents"' "$trace_out"
grep -q '"displayTimeUnit"' "$trace_out"
rm -f "$trace_out"

# The --jobs 1 vs --jobs 4 stdout diffs of the interleave, service and
# lifetime_campaign binaries run inside `cargo test`
# (crates/bench/tests/jobs_invariance.rs).

echo "verify: OK"
