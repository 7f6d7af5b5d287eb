#!/usr/bin/env bash
# Local CI: formatting, lints, and the tier-1 test suites (root package:
# integration tests + examples). Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1 tests (root package) =="
cargo test -q

echo "== tier-1 tests, deterministic single-thread pools =="
PINOT_TASKPOOL_THREADS=1 cargo test -q

echo "== taskpool suite (work stealing, scoped joins, deadlines) =="
cargo test -p pinot-taskpool

echo "== differential suite (pinot vs baseline, 1-vs-N-thread, batch-vs-row) =="
cargo test -p pinot-core --test differential

echo "== differential suite under forced row path (PINOT_EXEC_BATCH=0) =="
PINOT_EXEC_BATCH=0 cargo test -p pinot-core --test differential

echo "== differential suite under forced batch path (PINOT_EXEC_BATCH=1) =="
PINOT_EXEC_BATCH=1 cargo test -p pinot-core --test differential

echo "== differential suite under forced pruning off (PINOT_EXEC_PRUNE=0) =="
PINOT_EXEC_PRUNE=0 cargo test -p pinot-core --test differential

echo "== differential suite under forced pruning on (PINOT_EXEC_PRUNE=1) =="
PINOT_EXEC_PRUNE=1 cargo test -p pinot-core --test differential

echo "== differential suite under each forced access path (PINOT_EXEC_PLANNER) =="
PINOT_EXEC_PLANNER=scan cargo test -p pinot-core --test differential
PINOT_EXEC_PLANNER=inverted cargo test -p pinot-core --test differential
PINOT_EXEC_PLANNER=sorted cargo test -p pinot-core --test differential

echo "== differential suite with hedging off (PINOT_EXEC_HEDGE=0) =="
PINOT_EXEC_HEDGE=0 cargo test -p pinot-core --test differential

echo "== differential suite with the result cache on (PINOT_EXEC_RESULT_CACHE=1) =="
PINOT_EXEC_RESULT_CACHE=1 cargo test -p pinot-core --test differential

echo "== ingest differential suite (hybrid vs offline oracle, ingest-while-query) =="
cargo test -p pinot-core --test differential_ingest

echo "== ingest differential suite, legacy snapshot-rebuild path (PINOT_REALTIME_COLUMNAR=0) =="
PINOT_REALTIME_COLUMNAR=0 cargo test -p pinot-core --test differential_ingest

echo "== ingest differential suite, serial partition consumption (PINOT_INGEST_PARALLEL=0) =="
PINOT_INGEST_PARALLEL=0 cargo test -p pinot-core --test differential_ingest

echo "== kernel proptests (unpack_block/read_block/bitmap bulk extraction) =="
cargo test -p pinot-segment --test proptest_segment
cargo test -p pinot-bitmap --test proptest_bitmap

echo "== brute-force oracle proptests (per-segment execution, star-tree) =="
cargo test -p pinot-exec --test proptest_exec
cargo test -p pinot-startree --test proptest_startree

echo "== pruning proptests (bloom fp/fn bounds, evaluator soundness) =="
cargo test -p pinot-exec --test proptest_prune

echo "== morsel proptests (partitioning is a lossless exact cover) =="
cargo test -p pinot-exec --test proptest_morsel

echo "== profile-merge proptests (fold algebra, aggregation losslessness) =="
cargo test -p pinot-exec --test profile_prop

echo "== planner proptests (estimator bounds, monotonicity, path ≡ scan oracle) =="
cargo test -p pinot-exec --test proptest_planner

echo "== profiling plane (stats reconciliation, query ids, slow-query log) =="
cargo test -p pinot-core --test profiling

echo "== EXPLAIN PLAN golden stability =="
cargo test -p pinot-core --test explain_golden

echo "== metric-name registry vs DESIGN.md catalogue =="
cargo test -p pinot-core --test metrics_registry

echo "== prune bench acceptance (≥5x fewer segments, ≥2x p50) =="
cargo run --release -q -p pinot-bench --bin prune

echo "== profiling overhead acceptance (execute_profiled ≤5% vs execute) =="
cargo run --release -q -p pinot-bench --bin profile

echo "== morsel cost-gate regressions (fig7 shape inline, large scans fan out) =="
cargo test -p pinot-core --test morsel

echo "== chaos suite (fault injection + failover) =="
cargo test -p pinot-core --test chaos

echo "== scatter regressions (panicking/late server endpoints) =="
cargo test -p pinot-core --test scatter

echo "== survival suite (hedging, admission control, result cache) =="
cargo test -p pinot-core --test survival

echo "== broker bench acceptance (≥2x faulted p99 via hedging, ≥50% cache hits) =="
cargo run --release -q -p pinot-bench --bin broker

echo "== morsel scaling acceptance (gate no-overhead on WVMP, ≥2.5x on one big segment) =="
cargo run --release -q -p pinot-bench --bin scaling

echo "== planner bench acceptance (auto ≤ best single strategy, ≥2x vs worst on ≥2 shapes) =="
cargo run --release -q -p pinot-bench --bin planner

echo "== ingest bench acceptance (≥5x query p99 under concurrent ingest, bounded lag) =="
cargo run --release -q -p pinot-bench --bin ingest

echo "CI OK"
