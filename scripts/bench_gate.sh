#!/usr/bin/env bash
# Perf-regression gate: re-run the experiments snapshotted under
# bench/baselines/ at the same (smoke) scale and diff the fresh
# BENCH_<exp>.json files against the committed baselines with
# rrq-benchdiff.
#
# Machine-independent counters (multiplications, bound additions,
# node/leaf accesses, ...) must reproduce EXACTLY — same seed, same
# code, same numbers; any drift is an algorithmic change that belongs
# in a reviewed baseline update, not an accident. Wall-clock latency
# and heap metrics vary across machines, so they are reported but not
# gated by default; tighten with RRQ_LATENCY_PCT / RRQ_MEM_PCT on a
# quiet reference machine.
#
# Usage:
#   scripts/bench_gate.sh                    # gate against bench/baselines/
#   RRQ_LATENCY_PCT=50 scripts/bench_gate.sh # also gate tail latency
#
# To refresh the baselines after an intended perf-relevant change:
#   cd bench/baselines && rm -f BENCH_*.json \
#     && ../../target/release/rrq-exp fig2 fig14 --smoke
#   cd par && rm -f BENCH_*.json \
#     && ../../../target/release/rrq-exp fig14 --smoke --par-query 4
#   cd epoch && rm -f BENCH_*.json \
#     && ../../../../target/release/rrq-exp fig14 --smoke --par-query 4 --par-pool --par-epoch 64
#   cd ../../loadgen && rm -f BENCH_*.json \
#     && ../../../target/release/rrq-exp --smoke --loadgen rate=300,dur=0.1,mode=closed,workers=2
#   cd ../threshold && rm -f BENCH_*.json \
#     && ../../../target/release/rrq-exp fig10 --smoke --threshold-index
#   cd ../update && rm -f BENCH_*.json \
#     && ../../../target/release/rrq-exp --smoke --mutate trace=42
#
# bench/baselines/par/ holds snapshots taken with the deterministic
# parallel query engine (--par-query 4). Deterministic mode uses only
# worker-local pruning bounds, so its counters are exactly reproducible
# across runs and machines and are gated just as strictly.
#
# bench/baselines/par/epoch/ holds snapshots taken with the persistent
# worker pool in epoch-snapshot mode (--par-pool --par-epoch 64):
# workers exchange pruning bounds only at fixed weight offsets, so the
# counters are again exact — the gate proves the *shared*-bound design
# stays deterministic, not just the worker-local one.
#
# bench/baselines/threshold/ holds snapshots taken with the threshold
# index attached (--threshold-index) on the default ladder: the swept
# k values plus rungs from the sqrt(2) sequence isqrt(2^j) (see
# ThresholdIndex::default_buckets). The index's short-circuit decisions
# and the indexed RKR's weight visit order (ascending rank floor, then
# id) are a pure function of (data, q, k, buckets), so its counters —
# including threshold_hits and the reduced refine work — reproduce
# exactly; drift here means the certificate semantics, the visit order
# or the ladder changed. The column kernel cannot move them: its tables
# equal a sort oracle bit for bit on any ladder. The update/ tier serves
# RKR from an index on the same ladder, so the same changes move it.
set -euo pipefail

cd "$(dirname "$0")/.."

baseline_dir="bench/baselines"
latency_pct="${RRQ_LATENCY_PCT:-inf}"
mem_pct="${RRQ_MEM_PCT:-inf}"

if ! ls "$baseline_dir"/BENCH_*.json >/dev/null 2>&1; then
  echo "error: no baselines under $baseline_dir (see header for how to create them)" >&2
  exit 2
fi

echo "==> cargo build --release -p rrq-bench"
cargo build --release -p rrq-bench

# The baseline snapshots are generated by `rrq-exp <ids> --smoke`; re-run
# exactly the experiments that are snapshotted.
ids=$(ls "$baseline_dir"/BENCH_*.json | sed 's#.*/BENCH_##; s#\.json##' | tr '\n' ' ')
fresh_dir="$(mktemp -d)"
trap 'rm -rf "$fresh_dir"' EXIT

echo "==> rerunning experiments at baseline scale: $ids"
# shellcheck disable=SC2086  # ids is a deliberate word list
(cd "$fresh_dir" && "$OLDPWD/target/release/rrq-exp" $ids --smoke >/dev/null)

echo "==> rrq-benchdiff --dir $baseline_dir <fresh run>"
./target/release/rrq-benchdiff --dir "$baseline_dir" "$fresh_dir" \
  --max-latency-pct "$latency_pct" --max-mem-pct "$mem_pct" \
  --md-out "$fresh_dir/report.md" || {
  status=$?
  echo >&2
  echo "Perf gate FAILED — counters diverged from bench/baselines/." >&2
  echo "If the change is intended, refresh the baselines (see script header)." >&2
  exit "$status"
}

# Parallel-engine gate: the `ls` above is non-recursive, so the par/
# subdirectory is re-run and diffed separately with --par-query 4. A
# missing par/ snapshot is a hard error, not a skip — a silently
# skipped gate reads as "passed" and lets parallel counter drift land
# unreviewed.
par_dir="$baseline_dir/par"
if ! ls "$par_dir"/BENCH_*.json >/dev/null 2>&1; then
  echo "error: no parallel baselines under $par_dir — the parallel" >&2
  echo "counter gate cannot run. Create them (see script header) or" >&2
  echo "remove the directory deliberately in a reviewed change." >&2
  exit 2
fi
par_ids=$(ls "$par_dir"/BENCH_*.json | sed 's#.*/BENCH_##; s#\.json##' | tr '\n' ' ')
fresh_par="$fresh_dir/par"
mkdir -p "$fresh_par"
echo "==> rerunning parallel (--par-query 4) experiments: $par_ids"
# shellcheck disable=SC2086  # par_ids is a deliberate word list
(cd "$fresh_par" && "$OLDPWD/target/release/rrq-exp" $par_ids --smoke --par-query 4 >/dev/null)
echo "==> rrq-benchdiff --dir $par_dir <fresh parallel run>"
./target/release/rrq-benchdiff --dir "$par_dir" "$fresh_par" \
  --max-latency-pct "$latency_pct" --max-mem-pct "$mem_pct" \
  --md-out "$fresh_par/report.md" || {
  status=$?
  echo >&2
  echo "Parallel perf gate FAILED — counters diverged from $par_dir/." >&2
  echo "If the change is intended, refresh the baselines (see script header)." >&2
  exit "$status"
}

# Epoch-snapshot pool gate: same discipline for the persistent worker
# pool with epoch-merged shared bounds (--par-pool --par-epoch 64). The
# epoch protocol's whole point is that *shared* pruning state stays a
# pure function of (data, query, shards, epoch); a missing snapshot is a
# hard error for the same reason as above.
epoch_dir="$par_dir/epoch"
if ! ls "$epoch_dir"/BENCH_*.json >/dev/null 2>&1; then
  echo "error: no epoch-mode baselines under $epoch_dir — the pooled" >&2
  echo "epoch-snapshot counter gate cannot run. Create them (see script" >&2
  echo "header) or remove the directory deliberately in a reviewed change." >&2
  exit 2
fi
epoch_ids=$(ls "$epoch_dir"/BENCH_*.json | sed 's#.*/BENCH_##; s#\.json##' | tr '\n' ' ')
fresh_epoch="$fresh_dir/epoch"
mkdir -p "$fresh_epoch"
echo "==> rerunning pooled epoch-mode (--par-pool --par-epoch 64) experiments: $epoch_ids"
# shellcheck disable=SC2086  # epoch_ids is a deliberate word list
(cd "$fresh_epoch" && "$OLDPWD/target/release/rrq-exp" $epoch_ids --smoke --par-query 4 --par-pool --par-epoch 64 >/dev/null)
echo "==> rrq-benchdiff --dir $epoch_dir <fresh epoch run>"
./target/release/rrq-benchdiff --dir "$epoch_dir" "$fresh_epoch" \
  --max-latency-pct "$latency_pct" --max-mem-pct "$mem_pct" \
  --md-out "$fresh_epoch/report.md" || {
  status=$?
  echo >&2
  echo "Epoch-snapshot perf gate FAILED — counters diverged from $epoch_dir/." >&2
  echo "If the change is intended, refresh the baselines (see script header)." >&2
  exit "$status"
}

# Load-generator gate: the loadgen stream is a pure function of seed
# and configuration, so its QueryStats counters reproduce exactly in
# closed-loop mode; sched_* metrics are informational by design
# (infinite timing threshold). A missing snapshot is a hard error for
# the same reason as the tiers above.
loadgen_dir="$baseline_dir/loadgen"
if ! ls "$loadgen_dir"/BENCH_loadgen.json >/dev/null 2>&1; then
  echo "error: no load-generator baseline under $loadgen_dir — the" >&2
  echo "loadgen counter gate cannot run. Create it (see script header)" >&2
  echo "or remove the directory deliberately in a reviewed change." >&2
  exit 2
fi
fresh_loadgen="$fresh_dir/loadgen"
mkdir -p "$fresh_loadgen"
echo "==> rerunning load generator (closed loop, smoke scale)"
(cd "$fresh_loadgen" && "$OLDPWD/target/release/rrq-exp" --smoke \
  --loadgen rate=300,dur=0.1,mode=closed,workers=2 >/dev/null)
echo "==> rrq-benchdiff --dir $loadgen_dir <fresh loadgen run>"
./target/release/rrq-benchdiff --dir "$loadgen_dir" "$fresh_loadgen" \
  --max-latency-pct "$latency_pct" --max-mem-pct "$mem_pct" \
  --md-out "$fresh_loadgen/report.md" || {
  status=$?
  echo >&2
  echo "Loadgen perf gate FAILED — counters diverged from $loadgen_dir/." >&2
  echo "If the change is intended, refresh the baselines (see script header)." >&2
  exit "$status"
}

# Threshold-index gate: with the index attached, every RTK short-circuit
# and RKR rank certificate is a pure function of (data, k, buckets), so
# the indexed counters are exactly reproducible. A missing snapshot is a
# hard error — a silently skipped gate reads as "passed" and lets
# certificate drift land unreviewed.
threshold_dir="$baseline_dir/threshold"
if ! ls "$threshold_dir"/BENCH_*.json >/dev/null 2>&1; then
  echo "error: no threshold-index baselines under $threshold_dir — the" >&2
  echo "indexed counter gate cannot run. Create them (see script header)" >&2
  echo "or remove the directory deliberately in a reviewed change." >&2
  exit 2
fi
threshold_ids=$(ls "$threshold_dir"/BENCH_*.json | sed 's#.*/BENCH_##; s#\.json##' | tr '\n' ' ')
fresh_threshold="$fresh_dir/threshold"
mkdir -p "$fresh_threshold"
echo "==> rerunning threshold-index (--threshold-index) experiments: $threshold_ids"
# shellcheck disable=SC2086  # threshold_ids is a deliberate word list
(cd "$fresh_threshold" && "$OLDPWD/target/release/rrq-exp" $threshold_ids --smoke --threshold-index >/dev/null)
echo "==> rrq-benchdiff --dir $threshold_dir <fresh threshold run>"
./target/release/rrq-benchdiff --dir "$threshold_dir" "$fresh_threshold" \
  --max-latency-pct "$latency_pct" --max-mem-pct "$mem_pct" \
  --md-out "$fresh_threshold/report.md" || {
  status=$?
  echo >&2
  echo "Threshold-index perf gate FAILED — counters diverged from $threshold_dir/." >&2
  echo "If the change is intended, refresh the baselines (see script header)." >&2
  exit "$status"
}

# Update-trace gate: the mutate runner replays a seeded insert/delete
# trace against the epoch-versioned mutable engine and verifies every
# checkpoint against a rebuild-from-scratch index (a divergence fails
# the run itself). Its threshold index uses the serving ladder,
# default_buckets(&[k], |P|), split at the served k: exact rungs up to
# k, count-tracked floor rungs above (at |P| = 600 the sequence rungs
# run 16..512, so k = 10 is the one exact rung). Its exported counters — the
# scan-side tombstones_skipped / appended_scanned, the writer-side
# threshold_rows_repaired (columns whose exact rungs a publish had to
# recompute) / epoch_published, and the trace op census — are a pure
# function of (seed, configuration), so they are gated at the exact
# default threshold: drift in threshold_rows_repaired or the mutable
# run's threshold_hits means the publish flagging or the floor-count
# upkeep changed. A missing snapshot is a hard error for the same
# reason as the tiers above.
update_dir="$baseline_dir/update"
if ! ls "$update_dir"/BENCH_update.json >/dev/null 2>&1; then
  echo "error: no update-trace baseline under $update_dir — the mutable" >&2
  echo "engine counter gate cannot run. Create it (see script header)" >&2
  echo "or remove the directory deliberately in a reviewed change." >&2
  exit 2
fi
fresh_update="$fresh_dir/update"
mkdir -p "$fresh_update"
echo "==> rerunning update trace (--mutate trace=42, smoke scale)"
(cd "$fresh_update" && "$OLDPWD/target/release/rrq-exp" --smoke \
  --mutate trace=42 >/dev/null)
echo "==> rrq-benchdiff --dir $update_dir <fresh update run>"
./target/release/rrq-benchdiff --dir "$update_dir" "$fresh_update" \
  --max-latency-pct "$latency_pct" --max-mem-pct "$mem_pct" \
  --md-out "$fresh_update/report.md" || {
  status=$?
  echo >&2
  echo "Update-trace perf gate FAILED — counters diverged from $update_dir/." >&2
  echo "If the change is intended, refresh the baselines (see script header)." >&2
  exit "$status"
}

echo "Perf gate passed."
