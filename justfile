# Developer entry points. `just verify` is the gate every change must pass.

# Build + test + lint, all offline (the workspace has no external deps).
verify:
    ./scripts/verify.sh

build:
    cargo build --release --workspace --offline

test:
    cargo test -q --workspace --offline

# Lints the workspace, then perfbench/, which is its own workspace.
clippy:
    cargo clippy --workspace --all-targets --offline -- -D warnings
    cargo fmt --manifest-path perfbench/Cargo.toml -- --check
    cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings

# Project-invariant static analysis, one pass per file: determinism,
# accounting safety, panic policy, bench-binary conformance and dead
# pragmas. `--json` and `--list-rules` are also available on the binary;
# see DESIGN.md §11.
lint:
    cargo run --release -q -p ladder-lint --offline -- --root .

# Run the criterion-shim benches once each, which also enforces the
# tracing disabled-path allocation gate (trace_overhead).
bench-check:
    cargo test -q -p ladder-bench --benches --offline

# Regenerate the golden trace digests (monolithic and sharded) after an
# intentional simulator change (commit the resulting tests/golden/ diff).
regen-golden:
    GOLDEN_REGEN=1 cargo test -q --offline --test golden_trace -- --nocapture
    GOLDEN_REGEN=1 cargo test -q --offline --test shard_determinism -- --nocapture
    GOLDEN_REGEN=1 cargo test -q --offline --test service_determinism -- --nocapture
    GOLDEN_REGEN=1 cargo test -q --offline --test lifetime_determinism -- --nocapture

# Sharded scale-out smoke: the interleave, service and campaign sweeps
# (merged trace digests included) must be bit-identical across worker
# counts.
shards:
    cargo test -q --offline -p ladder-bench --test jobs_invariance
    cargo test -q --offline --test shard_determinism

# Regenerate the paper's main evaluation (set jobs, e.g. `just main-eval 8`).
main-eval jobs="4":
    cargo run --release -p ladder-bench --bin main_eval -- --jobs {{jobs}}

# Quick-mode smoke run of every figure/table binary (what verify.sh runs
# after the test suite).
smoke:
    cargo build --release -p ladder-bench --offline
    for bin in fig2 fig4b fig11 fig15 main_eval lifetime variability tables \
               ablations crash mna_table extension faults interleave service \
               lifetime_campaign; do \
        echo "-> $bin"; \
        ./target/release/$bin --quick --jobs 2 >/dev/null; \
    done

# Open-loop tail-latency SLO sweep: offered load x arrival process x
# scheme, per-tenant p50/p99/p999 report per cell (see EXPERIMENTS.md).
# Extra flags pass through, e.g. `just slo "--load 2,8 --tenants 5"`.
slo extra="":
    cargo run --release -p ladder-bench --bin service --offline -- --quick {{extra}}

# Multi-year device-lifetime campaign: write-skew x BER x remap backend x
# code scheme, one CSV row per cell (see EXPERIMENTS.md). Extra flags
# pass through, e.g. `just lifetime-campaign "--zipf 0.5 --topology 4x2"`.
lifetime-campaign extra="":
    cargo run --release -p ladder-bench --bin lifetime_campaign --offline -- --quick {{extra}}
