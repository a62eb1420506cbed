#!/usr/bin/env sh
# Offline CI gate: formatting, lints, and the full test suite.
# The workspace has no external dependencies, so everything below succeeds
# without network access.
set -eu

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc (deny warnings: every intra-doc link resolves)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline --keep-going

echo "==> the solver crates read no environment variable (only ctg-sim's run"
echo "    layer does)"
if grep -rn 'std::env::var' crates/core/src crates/ctg/src crates/obs/src \
    crates/platform/src crates/rng/src crates/tgff/src crates/workloads/src; then
    echo "environment read found in a solver crate" >&2
    exit 1
fi

echo "==> cargo test (offline)"
cargo test -q --workspace --offline

echo "==> parallel determinism matrix (2 workers forced)"
CTG_WORKERS=2 cargo test -q --offline --test parallel_determinism

echo "==> throughput smoke (2 workers)"
cargo build -q --release --offline -p ctg-bench --bin throughput
CTG_WORKERS=2 ./target/release/throughput --smoke

echo "==> warm-start solver equivalence"
cargo test -q --offline --test solver_equivalence

echo "==> solver bench smoke (asserts warm == cold bit-for-bit; warm and portfolio"
echo "    race p99 must stay within 2x of the committed BASELINE_solver.json snapshot)"
cargo build -q --release --offline -p ctg-bench --bin solver
./target/release/solver --smoke --check-baseline BASELINE_solver.json
test -s target/BENCH_solver_smoke.json

echo "==> serving-engine determinism matrix + per-stream reference pin (2 workers forced)"
CTG_WORKERS=2 cargo test -q --offline --test serve_determinism

echo "==> telemetry equivalence matrix (sink off / no-op / buffered)"
cargo test -q --offline --test obs_equivalence
CTG_WORKERS=2 cargo test -q --offline --test obs_equivalence

echo "==> clippy over the obs crate (deny warnings)"
cargo clippy -p ctg-obs --all-targets --offline -- -D warnings

echo "==> overload-resilience matrix (dormant-knob equivalence + queue-depth shed /"
echo "    quarantine determinism on a zero-gap replay across workers, shards, cache"
echo "    modes; budget-off == baseline)"
cargo test -q --offline --test serve_overload
CTG_WORKERS=2 cargo test -q --offline --test serve_overload

echo "==> event-engine determinism matrix (workers x streams x arrivals x caches;"
echo "    every arrival process yields the closed-loop summaries)"
cargo test -q --offline --test serve_events
CTG_WORKERS=2 cargo test -q --offline --test serve_events

echo "==> serve bench smoke (asserts summaries invariant across engine configs,"
echo "    shared cache > independent managers' caches at 64 streams, every overload"
echo "    row sheds; runs the 10k-stream open-loop scale row, writes + validates a"
echo "    telemetry-on chrome trace)"
cargo build -q --release --offline -p ctg-bench --bin serve
CTG_WORKERS=2 ./target/release/serve --smoke --trace target/ci_serve_trace.json
test -s target/ci_serve_trace.json
test -s target/BENCH_serve_smoke.json

echo "==> campaign determinism matrix (worker invariance + kill/resume round-trip)"
cargo test -q --offline --test campaign_determinism
CTG_WORKERS=2 cargo test -q --offline --test campaign_determinism

echo "==> campaign bench smoke (8-cell grid at 2 workers: shared-artifact compile,"
echo "    JSONL cell stream, truncate-mid-line kill/resume drill asserting the"
echo "    resumed roll-up is bit-identical; JSONL validated by the strict parser)"
cargo build -q --release --offline -p ctg-bench --bin campaign
CTG_CAMPAIGN_WORKERS=2 ./target/release/campaign --smoke
test -s target/campaign_cells_smoke.jsonl
test -s target/BENCH_campaign_smoke.json

echo "==> scheduler portfolio matrix (trait pin bit-for-bit, dormant knob, race"
echo "    verdict, serve determinism with 2 workers forced)"
cargo test -q --offline --test scheduler_portfolio
CTG_WORKERS=2 cargo test -q --offline --test scheduler_portfolio

echo "==> portfolio bench smoke (serve bench portfolio row: expected-energy"
echo "    no-regression gate vs DLS-only + reshard determinism, asserted in-bin;"
echo "    table1 asserts portfolio <= online on every row)"
cargo build -q --release --offline -p ctg-bench --bin table1
./target/release/table1 > /dev/null

echo "==> benchmark self-test (perfbench builds against the library and its"
echo "    workloads stay deterministic at a tiny size)"
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "==> CI OK"
