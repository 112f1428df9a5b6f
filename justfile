# Development task runner. Same gates as .github/workflows/ci.yml.

# Run every CI gate locally.
ci: fmt-check clippy doc test perfbench-selftest lint-circuits analyze-circuits gates-smoke

# Formatting gate.
fmt-check:
    cargo fmt --all -- --check

# Reformat in place.
fmt:
    cargo fmt --all

# Lint gate (warnings are errors).
clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc gate: broken or private intra-doc links are errors.
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Tier-1 verification: release build + full test suite.
test:
    cargo build --release
    cargo test -q --no-fail-fast

# Benchmark self-tests: every perfbench workload at 1 and 2 threads,
# checked against its committed reference outputs (about 35 s with the
# build).
perfbench-selftest:
    cargo test --release --manifest-path perfbench/Cargo.toml

# Static netlist DRC over every generated circuit block (fails on any
# error-level diagnostic; `cml-lint --codes` documents the code table).
lint-circuits:
    cargo run --release -p cml-lint --bin cml-lint -- --builtin all

# Abstract-interpretation static analysis over every generated circuit
# block: interval operating-point bounds, conditioning prediction and
# the stiffness spectrum (fails on any error-level finding;
# `cml-lint analyze --codes` documents the A-code table).
analyze-circuits:
    cargo run --release -p cml-lint --bin cml-lint -- analyze --builtin all

# Timing and peak-memory gates, full size (million-bit streaming eye,
# 10M-trial sweep, telemetry/event-log/AC-speedup legs; a few minutes).
# Exits 1 if any gate misses its bound.
gates:
    cargo run --release -p cml-bench --bin gates

# CI-sized gates (lint/analyzer cost, batched Monte-Carlo >= 3x, warm
# cache >= 1.05x, flat peak RSS), with both telemetry sinks written and
# the committed flight bundle replayed through `cml-lint forensics`.
# CI additionally schema-checks the two sink files.
gates-smoke:
    CML_TELEMETRY=json:/tmp/t.json,prom:/tmp/t.prom cargo run --release -p cml-bench --bin gates -- --smoke
    cargo run --release -p cml-lint --bin cml-lint -- forensics BENCH_pr10.cmlf --replay
