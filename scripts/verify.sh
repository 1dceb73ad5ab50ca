#!/usr/bin/env bash
# Tier-1 verification gate: the full hermetic build must pass offline.
#
# The workspace has zero registry dependencies (see crates/sync and the
# "Build" section of DESIGN.md), so --offline is not a degraded mode —
# it is the only mode. Run from the repository root. CI (.github/workflows/
# ci.yml) runs exactly this script, plus shellcheck over scripts/.
set -euo pipefail
cd "$(dirname "$0")/.."

# Golden snapshot fixtures must exist and match the committed manifest:
# a drifted fixture means the on-disk snapshot format changed without a
# FORMAT_VERSION bump (regenerate intentionally with D4PY_REGEN_FIXTURES=1
# and refresh tests/fixtures/MANIFEST.sha256).
(cd tests/fixtures && sha256sum --check --quiet MANIFEST.sha256) \
    || { echo "verify: FAIL — snapshot fixtures missing or modified" >&2; exit 1; }

cargo build --release --offline
cargo test -q --offline
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings

# Source invariants (crates/lint): std::sync confinement, SAFETY/relaxed
# justifications, no bare unwrap in library code, no wall-clock gating.
cargo run -q --release --offline -p d4py-lint -- . \
    || { echo "verify: FAIL — d4py-lint reports violations" >&2; exit 1; }

# Workflow static analysis: every built-in workflow must carry zero
# Error-severity D4PY diagnostics under the strictest analysis context
# (rule catalog in DESIGN.md §11). Writes the machine-readable report to
# target/bench/DIAGNOSTICS_check.json, which CI archives.
cargo run -q --release --offline -p d4py-bench --bin repro -- check --all --json \
    > /dev/null \
    || { echo "verify: FAIL — repro check reports Error diagnostics" >&2; exit 1; }

# Model-checker smoke: the instrumented --cfg d4py_model build of the
# lock-free core — channel park/wakeup protocol plus the steal-queue
# sweep (steal-vs-pop exactly-once, no lost wakeup after a failed sweep,
# timeout-steal rewake), replicas of the rule that ends a dynamic or
# hybrid run (settle, push, pop; the zero-crossing flushes the next
# stateful stage or broadcasts) and of redis-lite's blocking read (the
# in-process wait and the reactor's park) with their mutations as failing
# traces — explored under a small iteration budget (CI runs the full
# budget in a dedicated job). Separate target dir so the cfg flip does not
# thrash the main build cache.
D4PY_MODEL_ITERS="${D4PY_MODEL_ITERS:-150}" \
CARGO_TARGET_DIR=target/model \
RUSTFLAGS="--cfg d4py_model" \
    cargo test -q --offline -p d4py-sync --test model \
    || { echo "verify: FAIL — model-checked invariants" >&2; exit 1; }

# The snapshot-format, state-store and task-queue conformance suites and
# the per-call allocation gate (heap allocations per chain9 item) are part
# of `cargo test` above, but run them by name too so a Cargo.toml
# regression that silently unregisters any target fails loudly here.
cargo test -q --offline --test snapshot_format --test state_store_conformance \
    --test queue_conformance --test alloc_budget

# Smoke-run the lock-free global-queue ablation so the channel fast path is
# exercised under the full gate. Quick mode writes its JSON report tagged
# smoke:true (below statistical validity), so the comparison that follows
# exercises the bench-compare path without ever gating on smoke samples.
# Full gating runs come from `cargo bench --bench ablation_queue` against
# a baseline promoted by scripts/bench-baseline.sh.
D4PY_BENCH_QUICK=1 cargo bench --offline --bench ablation_queue

# Same for the Redis-backend ablation: pipelined vs unpipelined XADD
# across 1/2/4 redis-lite shards (client pipelining, pool, cluster
# routing all on the hot path).
D4PY_BENCH_QUICK=1 cargo bench --offline --bench ablation_redis

# And the connection-scaling ablation: N concurrent clients against the
# event-driven reactor. Quick mode uses small client counts; full gating
# runs sweep 64/256/1024 clients.
D4PY_BENCH_QUICK=1 cargo bench --offline --bench ablation_connections

# Chaos-matrix smoke: three cells (crash + recovery, straggler under key
# skew, flaky transport) through the real scenario runner over a live
# redis-lite server. The run itself HARD-fails on any invariant violation
# (exactly-once after crash recovery, no lost/duplicated group-by state);
# only the timing entries are smoke-tagged. Full gating runs come from
# `repro -- chaos` via scripts/bench-baseline.sh.
D4PY_BENCH_QUICK=1 cargo run -q --release --offline -p d4py-bench --bin repro -- \
    chaos --quick \
    || { echo "verify: FAIL — chaos matrix smoke violated an invariant" >&2; exit 1; }

# Ablation smoke (~1 s): the three design ablations of DESIGN.md §5 in quick
# mode. Ablation 3 runs `Multi::clustered(staging(g))`, the clustered
# placement's one caller outside the tests; any run that errs panics here.
cargo run -q --release --offline -p d4py-bench --bin repro -- ablation --quick \
    || { echo "verify: FAIL — repro ablation smoke" >&2; exit 1; }

# The repo benchmark (BENCHMARK.json) is a package of its own that the root
# build does not compile, yet it imports the engines' front doors directly
# (run_dynamic, run_hybrid, QueueFactory, TaskQueue, Router, ...). Build it
# and smoke one in-process and one redis workload — both front doors, both
# queue kinds — so a signature drift in those seams fails here instead of
# in the pipeline's benchmark step. The binary exits 1 when any output was
# wrong; the last line is its JSON summary.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
benchmark_summary="$(cargo run --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml -- run --quick --seconds 2 \
    --workload chain9_inproc --workload seismic_inproc --workload sentiment_hybrid_redis \
    --out target/bench/BENCHMARK_smoke.json | tail -n 1)" \
    || { echo "verify: FAIL — benchmark smoke run failed" >&2; exit 1; }
grep -q '"failed": 0,' <<<"$benchmark_summary" \
    || { echo "verify: FAIL — benchmark smoke: items_failed != 0" >&2; exit 1; }

# A count gate, not a timing gate: on the redis path the unit of queue
# traffic is the popped batch (one read carrying the previous batch's XDEL,
# one pipelined write), and the chain's nine hops after the source are
# called inline, so a traced chain9_redis run makes ~0.0065 round trips per
# PE call (five runs on 2 cores read 0.0063-0.0065; the bound is three times
# the worst). Queueing every hop again reads ~0.06, and one round trip per
# task — a push per emission, a second trip per pop — reads ~1.0.
redis_summary="$(cargo run --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml -- run --quick --seconds 2 \
    --workload chain9_redis --trace \
    --out target/bench/BENCHMARK_smoke_redis.json | tail -n 1)" \
    || { echo "verify: FAIL — benchmark redis smoke run failed" >&2; exit 1; }
grep -q '"failed": 0,' <<<"$redis_summary" \
    || { echo "verify: FAIL — benchmark redis smoke: items_failed != 0" >&2; exit 1; }
round_trips="$(sed -n \
    's/.*"redis\.client\.round_trips_per_task": {"value": \([0-9.eE+-]*\).*/\1/p' \
    <<<"$redis_summary")"
awk -v x="$round_trips" 'BEGIN { exit !(x != "" && x + 0 < 0.0195) }' \
    || { echo "verify: FAIL — chain9_redis round_trips_per_task = '$round_trips', want < 0.0195" >&2; exit 1; }

# A second count on the same run: a strict dynamic run ends at the settle
# that takes `outstanding` to zero, so it polls an empty stream only while
# one worker runs the source (a handful at most). Ended by the retry
# protocol instead, every worker adds max_retries + 1 = 6 empty polls.
workers="$(grep -o '"workers": [0-9]*' target/bench/BENCHMARK_smoke_redis.json \
    | head -n 1 | tr -dc '0-9')"
empty_pops="$(sed -n \
    's/.*"redis-mappings\.queue\.empty_pops": {"value": \([0-9.eE+-]*\).*/\1/p' \
    <<<"$redis_summary")"
awk -v x="$empty_pops" -v w="$workers" 'BEGIN { exit !(x != "" && w + 0 > 0 && x + 0 < 6 * w) }' \
    || { echo "verify: FAIL — chain9_redis empty_pops = '$empty_pops' with '$workers' workers, want < 6 per worker" >&2; exit 1; }

# A third count on the same run, of commands: round trips per PE call times
# commands per round trip. A NOACK stream entry carries up to 8 tasks, so a
# worker's write-out of 32 tasks is 4 XADDs and its read of them one
# XREADGROUP; five runs on 2 cores read 0.0205-0.0208 commands per PE call
# (the bound is three times the worst). One XADD per task reads ~0.108.
cmds_per_round_trip="$(sed -n \
    's/.*"redis\.client\.cmds_per_round_trip": {"value": \([0-9.eE+-]*\).*/\1/p' \
    <<<"$redis_summary")"
awk -v rt="$round_trips" -v c="$cmds_per_round_trip" \
    'BEGIN { exit !(c != "" && rt * c < 0.0625) }' \
    || { echo "verify: FAIL — chain9_redis commands per PE call = '$round_trips' x '$cmds_per_round_trip', want < 0.0625" >&2; exit 1; }

# A count gate on seismic over the wire: each seismic kernel runs in well
# under FLUSH_AFTER, so every hop after the source's is called inline and a
# trace crosses the wire once, as the source's emission. A traced
# seismic_redis run then sends ~594 bytes per PE call (five runs on 2 cores
# read 594.1-594.7; the bound is 1.26 times the worst). A trace that crosses
# twice, as when whiten and spectrum were slow enough to stay queue tasks,
# reads ~1 154.
seismic_summary="$(cargo run --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml -- run --quick --seconds 2 \
    --workload seismic_redis --trace \
    --out target/bench/BENCHMARK_smoke_seismic.json | tail -n 1)" \
    || { echo "verify: FAIL — benchmark seismic smoke run failed" >&2; exit 1; }
grep -q '"failed": 0,' <<<"$seismic_summary" \
    || { echo "verify: FAIL — benchmark seismic smoke: items_failed != 0" >&2; exit 1; }
bytes_out="$(sed -n \
    's/.*"redis\.client\.bytes_out_per_task": {"value": \([0-9.eE+-]*\).*/\1/p' \
    <<<"$seismic_summary")"
awk -v x="$bytes_out" 'BEGIN { exit !(x != "" && x + 0 < 750) }' \
    || { echo "verify: FAIL — seismic_redis bytes_out_per_task = '$bytes_out', want < 750" >&2; exit 1; }

for bench in ablation_queue redis_backend connections chaos_matrix; do
    baseline="bench/baselines/BENCH_${bench}.json"
    current="target/bench/BENCH_${bench}.json"
    if [[ -f "$baseline" && -f "$current" ]]; then
        cargo run -q --offline -p d4py-bench --bin bench-compare -- \
            "$baseline" "$current" \
            || { echo "verify: FAIL — bench-compare reports a regression" >&2; exit 1; }
    fi
done

echo "verify: OK"
