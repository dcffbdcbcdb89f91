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

# The project invariants (determinism, accounting safety, panic policy,
# audited exceptions) as clippy lints; see DESIGN.md §11.
lint:
    cargo clippy --workspace --all-targets --offline -- -D warnings

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

# Sharded scale-out smoke: the interleave, service and campaign figures
# (merged trace digests included) must be bit-identical across worker
# counts.
shards:
    cargo test -q --offline -p ladder-bench --test jobs_invariance
    cargo test -q --offline --test shard_determinism

# Regenerate the paper's main evaluation (set jobs, e.g. `just main-eval 8`).
main-eval jobs="4":
    cargo run --release -p ladder-bench --bin figures --offline -- main_eval --jobs {{jobs}}

# Rewrite every committed results/<figure>.txt (and results/csv/) at the
# scale that produced it.
figures jobs="2":
    cargo run --release -p ladder-bench --bin figures --offline -- regen --jobs {{jobs}}

# Quick-mode smoke run of every figure (what verify.sh runs after the
# test suite).
smoke:
    cargo run --release -p ladder-bench --bin figures --offline -- all --quick --jobs 2 >/dev/null

# Open-loop tail-latency SLO sweep: offered load x arrival process x
# scheme, per-tenant p50/p99/p999 report per cell (see EXPERIMENTS.md).
# Extra flags pass through, e.g. `just slo "--load 2,8 --tenants 5"`.
slo extra="":
    cargo run --release -p ladder-bench --bin figures --offline -- service --quick {{extra}}

# Multi-year device-lifetime campaign: write-skew x BER x remap backend x
# code scheme, one CSV row per cell (see EXPERIMENTS.md). Extra flags
# pass through, e.g. `just lifetime-campaign "--zipf 0.5 --topology 4x2"`.
lifetime-campaign extra="":
    cargo run --release -p ladder-bench --bin figures --offline -- lifetime_campaign --quick {{extra}}
