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

echo "==> the library reads the environment in one place only:"
echo "    RunConfig::from_env (crates/sim/src/run.rs)"
if grep -rn 'std::env::var' crates/core/src crates/ctg/src crates/obs/src \
    crates/platform/src crates/rng/src crates/sim/src crates/tgff/src \
    crates/workloads/src | grep -v '^crates/sim/src/run.rs:'; then
    echo "environment read found outside RunConfig::from_env" >&2
    exit 1
fi

echo "==> cargo test (offline)"
cargo test -q --workspace --offline

echo "==> parallel determinism matrix"
cargo test -q --offline --test parallel_determinism

echo "==> throughput smoke (2 workers)"
cargo build -q --release --offline -p ctg-bench --bin throughput
CTG_WORKERS=2 ./target/release/throughput --smoke

echo "==> warm-start solver equivalence"
cargo test -q --offline --test solver_equivalence

echo "==> Fig. 2 stretch reference (every stretch == a plain Fig. 2 reference bit for"
echo "    bit, saturated paths included; tie pin: two paths of one minterm group reach"
echo "    bit-equal slack ratios with different prob(p, t), and the last of equal"
echo "    minima decides the grant)"
cargo test -q --offline --test stretch_reference

echo "==> Fig. 2 stretch kernels (calculate_slack_matches_the_two_pass_reference: the"
echo "    range scan's slack, deadline cap included, and its read count == the"
echo "    run-by-run fold over the eager two-pass layout, bit for bit;"
echo "    saturated_paths_block_tasks_on_mpeg: grant propagation flags saturated paths,"
echo "    so MPEG stretches skip blocked tasks, which the reference suites cannot see)"
cargo test -q --offline -p ctg-sched --lib calculate_slack_matches_the_two_pass_reference
cargo test -q --offline -p ctg-sched --lib saturated_paths_block_tasks_on_mpeg

echo "==> scheduled-graph golden pin (every graph case's edges, paths, groups, guard"
echo "    sequences, node ranges, enumeration charges and over-the-cap verdicts hash"
echo "    to one pinned digest) and the frame readers (frame_readers_match_the_flat_view:"
echo "    every path's frame chain == its flat tasks, and validate_solution's delays"
echo "    along the chains == SPath::stretched_delay bit for bit, at every walk width"
echo "    through fresh and kept scratches; workspace solves leave the flat copy unlaid)"
echo "    and budgeted aborts (budgeted_builds_abort_on_the_crossing_step: on every graph"
echo "    case at every walk width, a budget b below the build's charge fails with b + 1"
echo "    spent, on the frame and edge steps of links too, and the full charge builds"
echo "    the unlimited graph)"
cargo test -q --offline -p ctg-sched --lib graph_cases_match_the_golden_digest
cargo test -q --offline -p ctg-sched --lib frame_readers_match_the_flat_view
cargo test -q --offline -p ctg-sched --lib budgeted_builds_abort_on_the_crossing_step

echo "==> list-scheduler golden pin (DLS, HEFT, lookahead and the fixed rule on every"
echo "    graph case under five tables: every schedule field, DLS charge and error"
echo "    payload hash to one pinned digest) and DLS's kept starts"
echo "    (kept_starts_match_fresh_ones_at_every_pick: at every DLS pick on those"
echo "    cases and tables, each ready task's kept start per PE == a from-scratch"
echo "    earliest start, bit for bit)"
cargo test -q --offline -p ctg-sched --lib list_schedules_match_the_golden_digest
cargo test -q --offline -p ctg-sched --lib kept_starts_match_fresh_ones_at_every_pick

echo "==> compiled activation masks and drift fold pin (every decision vector's active"
echo "    set, out-of-range alternatives included, == Activation::is_active per task on"
echo "    Example 1, MPEG, cruise, WLAN and TGFF graphs, and on graphs of two and three"
echo "    mask words, and its executed forks == that set's fork entries;"
echo "    Dnf::disjoint == and().is_false() for every task pair; the scenario"
echo "    enumeration, the context's task and literal masks and mutex matrix == the"
echo "    DNF-derived ones; the in-place drift and the table built on a crossing == the"
echo "    estimate()-based fold, bit for bit, for a window and an EWMA)"
cargo test -q --offline -p ctg-sched --lib compiled_masks_and_the_drift_fold_match_their_references

echo "==> solver bench smoke (asserts warm == cold bit-for-bit; warm and portfolio"
echo "    race p99, the cold build + first stretch p99 and the stretch / dls_map"
echo "    stage ratio must stay within 2x of the committed BASELINE_solver.json"
echo "    snapshot)"
cargo build -q --release --offline -p ctg-bench --bin solver
./target/release/solver --smoke --check-baseline BASELINE_solver.json
test -s target/BENCH_solver_smoke.json

echo "==> serving-engine determinism matrix + per-stream reference pin"
cargo test -q --offline --test serve_determinism

echo "==> telemetry equivalence matrix (sink off / no-op / buffered)"
cargo test -q --offline --test obs_equivalence

echo "==> clippy over the obs crate (deny warnings)"
cargo clippy -p ctg-obs --all-targets --offline -- -D warnings

echo "==> overload-resilience matrix (dormant-knob equivalence + queue-depth shed /"
echo "    quarantine determinism on a zero-gap replay across workers, shards, cache"
echo "    modes; budget-off == baseline)"
cargo test -q --offline --test serve_overload

echo "==> event-engine determinism matrix (workers x streams x arrivals x caches;"
echo "    every arrival process yields the closed-loop summaries)"
cargo test -q --offline --test serve_events

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

echo "==> campaign bench smoke (8-cell grid at 2 workers: shared-artifact compile,"
echo "    JSONL cell stream, truncate-mid-line kill/resume drill asserting the"
echo "    resumed roll-up is bit-identical; JSONL validated by the strict parser)"
cargo build -q --release --offline -p ctg-bench --bin campaign
CTG_WORKERS=2 ./target/release/campaign --smoke
test -s target/campaign_cells_smoke.jsonl
test -s target/BENCH_campaign_smoke.json

echo "==> scheduler portfolio matrix (kind pin: DLS kind == OnlineScheduler, cold and"
echo "    warm; frame pin: frame kind through a shared workspace == cold DLS + level"
echo "    search; judged-once pin: races through one shared workspace == races of cold"
echo "    entries, and only entries whose schedule and speed policy no earlier entry"
echo "    produced stretch and get judged; dormant knob, race verdict, serve"
echo "    determinism across worker and shard counts)"
cargo test -q --offline --test scheduler_portfolio

echo "==> quickstart example (the first runnable example README.md lists)"
cargo run -q --release --offline --example quickstart > /dev/null

echo "==> portfolio bench smoke (serve bench portfolio row: expected-energy"
echo "    no-regression gate vs DLS-only + reshard determinism, asserted in-bin;"
echo "    table1 asserts portfolio <= online on every row)"
cargo build -q --release --offline -p ctg-bench --bin table1
./target/release/table1 > /dev/null

echo "==> benchmark self-test (perfbench builds against the library and its"
echo "    workloads stay deterministic at a tiny size)"
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "==> CI OK"
