#!/usr/bin/env bash
# Pre-PR gate: formatting, lints (clippy + rrq-lint), build and the
# full test suite.
#
# rrq-lint is the workspace's own static-analysis pass: it enforces the
# determinism, unsafe-containment and counter-integrity rules clippy
# cannot express (see DESIGN.md §11). scripts/lint_gate.sh runs it
# standalone with JSON output for CI.
#
# Everything here runs fully offline — the workspace has no external
# dependencies by design (see the workspace Cargo.toml), so no step
# touches the network. Run from anywhere inside the repository.
set -euo pipefail

cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel 2>/dev/null || dirname "$0")/" 2>/dev/null \
  || cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rrq-lint (workspace invariants, committed baseline applied)"
cargo build --release -q -p rrq-lint
./target/release/rrq-lint --baseline lint_baseline.txt

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test --workspace -q

echo "==> perfbench tests (name guard, determinism, oracle checks)"
# The repository benchmark (BENCHMARK.json, perfbench/) is a Cargo
# workspace of its own, so the workspace test run above never builds it:
# without this step a broken benchmark would pass the gate.
cargo test --release --offline --manifest-path perfbench/Cargo.toml -q

echo "==> miri (optional: nightly-only, deepens the alloc-track audit)"
# The counting-allocator tests in crates/obs are the workspace's only
# unsafe code; when a nightly toolchain with Miri is installed, replay
# them under it. Strictly additive — absence is not a failure, since
# the pinned stable toolchain cannot run Miri.
if cargo +nightly miri --version >/dev/null 2>&1; then
  MIRIFLAGS="-Zmiri-disable-isolation" \
    cargo +nightly miri test -p rrq-obs --test noop_alloc -q
  echo "    miri clean on the counting-allocator tests"
else
  echo "    skipped (no nightly Miri toolchain installed)"
fi

echo "==> perf gate (counters vs the committed bench/baselines/)"
# Every other benchdiff step below diffs a binary against itself; this
# one compares fresh runs with the committed baselines, the only check
# that a change still books every counter as the reviewed code did.
./scripts/bench_gate.sh >/dev/null
echo "    counters exact on all six tiers"

echo "==> rrq-benchdiff smoke (tiny dataset, self vs self must be clean)"
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
(cd "$smoke_dir" && "$OLDPWD/target/release/rrq-exp" fig14 --smoke >/dev/null)
./target/release/rrq-benchdiff \
  "$smoke_dir/BENCH_fig14.json" "$smoke_dir/BENCH_fig14.json" >/dev/null
echo "    self-diff clean"

echo "==> parallel query engine smoke (--par-query 4)"
# (a) Determinism: two independent same-seed parallel runs must produce
#     bit-identical counters — rrq-benchdiff's default exact counter
#     threshold is the gate. Latency/heap jitter is machine noise, not
#     part of the determinism contract.
par_a="$smoke_dir/par_a"; par_b="$smoke_dir/par_b"
mkdir -p "$par_a" "$par_b"
(cd "$par_a" && "$OLDPWD/target/release/rrq-exp" fig14 --smoke --par-query 4 >/dev/null)
(cd "$par_b" && "$OLDPWD/target/release/rrq-exp" fig14 --smoke --par-query 4 >/dev/null)
./target/release/rrq-benchdiff \
  "$par_a/BENCH_fig14.json" "$par_b/BENCH_fig14.json" \
  --max-latency-pct inf --max-mem-pct inf >/dev/null
echo "    deterministic parallel self-diff clean (exact counters)"
# (b) Structure: the parallel document must pair up with the sequential
#     one run for run (same experiments, algorithms, labels). Counters
#     legitimately differ (per-worker Domin buffers), so only the
#     document structure and config are gated here.
./target/release/rrq-benchdiff \
  "$smoke_dir/BENCH_fig14.json" "$par_a/BENCH_fig14.json" \
  --max-counter-pct inf --max-latency-pct inf --max-mem-pct inf >/dev/null
echo "    sequential vs parallel document structure clean"

echo "==> worker pool + epoch snapshot smoke (--par-pool --par-epoch 64)"
# Epoch-snapshot mode folds shared bounds at fixed weight offsets, so its
# pruning counters are a pure function of (data, query, shards, epoch):
# two same-seed runs on the persistent pool must diff clean at the
# default EXACT counter threshold — the determinism contract of
# DESIGN.md §5b, gated end to end through the bench exporter.
pool_a="$smoke_dir/pool_a"; pool_b="$smoke_dir/pool_b"
mkdir -p "$pool_a" "$pool_b"
(cd "$pool_a" && "$OLDPWD/target/release/rrq-exp" fig14 --smoke --par-query 4 --par-pool --par-epoch 64 >/dev/null)
(cd "$pool_b" && "$OLDPWD/target/release/rrq-exp" fig14 --smoke --par-query 4 --par-pool --par-epoch 64 >/dev/null)
./target/release/rrq-benchdiff \
  "$pool_a/BENCH_fig14.json" "$pool_b/BENCH_fig14.json" \
  --max-latency-pct inf --max-mem-pct inf >/dev/null
echo "    epoch-snapshot pool self-diff clean (exact counters)"

echo "==> load generator smoke (closed loop, same seed twice)"
# The loadgen stream is a pure function of seed and configuration, so
# two same-seed closed-loop runs must agree EXACTLY on every
# deterministic counter (benchdiff default 0% threshold); only latency
# and the sched_* scheduling metrics may differ between runs.
lg_a="$smoke_dir/lg_a"; lg_b="$smoke_dir/lg_b"
mkdir -p "$lg_a" "$lg_b"
(cd "$lg_a" && "$OLDPWD/target/release/rrq-exp" --smoke \
  --loadgen rate=300,dur=0.1,mode=closed,workers=2 >/dev/null)
(cd "$lg_b" && "$OLDPWD/target/release/rrq-exp" --smoke \
  --loadgen rate=300,dur=0.1,mode=closed,workers=2 >/dev/null)
./target/release/rrq-benchdiff \
  "$lg_a/BENCH_loadgen.json" "$lg_b/BENCH_loadgen.json" \
  --max-latency-pct inf --max-mem-pct inf >/dev/null
echo "    loadgen self-diff clean (exact counters)"

echo "==> explain smoke (capture, render, zero-tolerance self-diff)"
# Explain documents are a pure function of seed and configuration:
# two same-seed captures must be identical, and `rrq-explain diff` (no
# tolerance knobs by design) must localize nothing. Sequential and
# parallel documents of the same query must agree structurally (header
# + results) — the cross-engine contract of DESIGN.md §9b.
ex_a="$smoke_dir/ex_a"; ex_b="$smoke_dir/ex_b"
mkdir -p "$ex_a" "$ex_b"
(cd "$ex_a" && "$OLDPWD/target/release/rrq-exp" --smoke --par-query 2 --explain >/dev/null)
(cd "$ex_b" && "$OLDPWD/target/release/rrq-exp" --smoke --par-query 2 --explain >/dev/null)
for doc in rtk_gir rkr_gir rtk_par rkr_par; do
  ./target/release/rrq-explain diff \
    "$ex_a/EXPLAIN_$doc.json" "$ex_b/EXPLAIN_$doc.json" >/dev/null
  cmp -s "$ex_a/EXPLAIN_$doc.json" "$ex_b/EXPLAIN_$doc.json"
done
echo "    same-seed captures byte-identical and diff-clean"
./target/release/rrq-explain diff --structural \
  "$ex_a/EXPLAIN_rtk_gir.json" "$ex_a/EXPLAIN_rtk_par.json" >/dev/null
./target/release/rrq-explain diff --structural \
  "$ex_a/EXPLAIN_rkr_gir.json" "$ex_a/EXPLAIN_rkr_par.json" >/dev/null
echo "    sequential vs parallel structurally clean"
./target/release/rrq-explain render "$ex_a/EXPLAIN_rtk_gir.json" | grep -q "funnel"
echo "    render smoke ok"

echo "==> threshold index smoke (artifact lifecycle + short-circuit win)"
# (a) Artifact lifecycle: build a versioned RRQT artifact, re-read it
#     through the full header/checksum validation path, and prove that a
#     stale shape, a flipped payload bit and a truncated file are all
#     rejected with the typed errors the serving layer raises.
th_dir="$smoke_dir/threshold"
mkdir -p "$th_dir"
./target/release/rrq-threshold build "$th_dir/idx.rrqt" 2>/dev/null
./target/release/rrq-threshold check "$th_dir/idx.rrqt" 2>/dev/null
if ./target/release/rrq-threshold check "$th_dir/idx.rrqt" --seed 7 2>"$th_dir/stale.err"; then
  echo "error: stale threshold artifact was accepted" >&2; exit 1
fi
grep -q "rejected as stale" "$th_dir/stale.err"
cp "$th_dir/idx.rrqt" "$th_dir/corrupt.rrqt"
last=$(tail -c1 "$th_dir/corrupt.rrqt" | od -An -tu1 | tr -d ' ')
printf "\\x$(printf '%02x' $(( (last + 1) % 256 )))" \
  | dd of="$th_dir/corrupt.rrqt" bs=1 seek=$(( $(wc -c < "$th_dir/corrupt.rrqt") - 1 )) conv=notrunc 2>/dev/null
if ./target/release/rrq-threshold check "$th_dir/corrupt.rrqt" 2>"$th_dir/corrupt.err"; then
  echo "error: corrupted threshold artifact was accepted" >&2; exit 1
fi
grep -q "checksum" "$th_dir/corrupt.err"
head -c 40 "$th_dir/idx.rrqt" > "$th_dir/trunc.rrqt"
if ./target/release/rrq-threshold check "$th_dir/trunc.rrqt" 2>"$th_dir/trunc.err"; then
  echo "error: truncated threshold artifact was accepted" >&2; exit 1
fi
grep -q "bytes on disk" "$th_dir/trunc.err"
echo "    artifact round-trip ok; stale/corrupt/truncated all rejected"
# (b) Serving: two same-seed indexed fig10 runs must produce
#     bit-identical counters (benchdiff's default exact threshold), and
#     against the plain run the index must cut GIR's RTK refine work by
#     at least 5x while booking every short-circuit in threshold_hits,
#     and GIR's RKR multiplications by at least 5x. The RKR cut comes
#     from visiting weights in rank-floor order on the sqrt(2) rung
#     ladder (5.2x).
th_a="$th_dir/a"; th_b="$th_dir/b"; th_plain="$th_dir/plain"
mkdir -p "$th_a" "$th_b" "$th_plain"
(cd "$th_plain" && "$OLDPWD/target/release/rrq-exp" fig10 --smoke >/dev/null)
(cd "$th_a" && "$OLDPWD/target/release/rrq-exp" fig10 --smoke --threshold-index >/dev/null)
(cd "$th_b" && "$OLDPWD/target/release/rrq-exp" fig10 --smoke --threshold-index >/dev/null)
./target/release/rrq-benchdiff \
  "$th_a/BENCH_fig10.json" "$th_b/BENCH_fig10.json" \
  --max-latency-pct inf --max-mem-pct inf >/dev/null
echo "    indexed self-diff clean (exact counters)"
gir_counter() { # FILE COUNTER KIND: sums COUNTER over the GIR runs of query kind KIND
  awk -v counter="\"$2\":" -v kind="\"$3\"" \
    '/"algorithm":/ { alg = $2 } /"query_kind":/ { q = $2 }
     $1 == counter { if (alg ~ /"GIR/ && index(q, kind) == 1) sum += $2 + 0 }
     END { print sum + 0 }' "$1"
}
plain_refined=$(gir_counter "$th_plain/BENCH_fig10.json" refined rtk)
indexed_refined=$(gir_counter "$th_a/BENCH_fig10.json" refined rtk)
hits=$(awk '/"threshold_hits":/ { sum += $2 + 0 } END { print sum + 0 }' "$th_a/BENCH_fig10.json")
if [ "$plain_refined" -le 0 ] || [ "$plain_refined" -lt $(( 5 * indexed_refined )) ] || [ "$hits" -le 0 ]; then
  echo "error: threshold index win too small: RTK refined $plain_refined -> $indexed_refined, threshold_hits $hits" >&2
  exit 1
fi
echo "    GIR rtk refined pairs: $plain_refined -> $indexed_refined (>= 5x cut), $hits threshold hits"
plain_mults=$(gir_counter "$th_plain/BENCH_fig10.json" multiplications rkr)
indexed_mults=$(gir_counter "$th_a/BENCH_fig10.json" multiplications rkr)
if [ "$plain_mults" -le 0 ] || [ "$plain_mults" -lt $(( 5 * indexed_mults )) ]; then
  echo "error: threshold index RKR win too small: multiplications $plain_mults -> $indexed_mults (need >= 5x)" >&2
  exit 1
fi
echo "    GIR rkr multiplications: $plain_mults -> $indexed_mults (>= 5x cut)"

echo "==> update trace smoke (mutable engine vs rebuild, same seed twice)"
# The update trace is a pure function of its seed. The runner itself
# hard-fails if the mutable engine (tombstones, append tails,
# incremental threshold repair, epoch publishes, one mid-trace
# compaction fold) ever diverges from an index rebuilt from scratch at
# a checkpoint — so a clean exit IS the mutable-vs-rebuild
# zero-tolerance diff. On top of that, two same-seed runs must agree
# EXACTLY on every deterministic counter, including the update-path
# quartet (tombstones_skipped, appended_scanned,
# threshold_rows_repaired, epoch_published).
up_a="$smoke_dir/up_a"; up_b="$smoke_dir/up_b"
mkdir -p "$up_a" "$up_b"
(cd "$up_a" && "$OLDPWD/target/release/rrq-exp" --smoke --mutate trace=42 >/dev/null)
(cd "$up_b" && "$OLDPWD/target/release/rrq-exp" --smoke --mutate trace=42 >/dev/null)
./target/release/rrq-benchdiff \
  "$up_a/BENCH_update.json" "$up_b/BENCH_update.json" >/dev/null
for counter in tombstones_skipped appended_scanned threshold_rows_repaired epoch_published; do
  grep -q "\"$counter\"" "$up_a/BENCH_update.json" || {
    echo "error: BENCH_update.json is missing counter $counter" >&2; exit 1;
  }
done
echo "    update-trace self-diff clean (exact counters, zero tolerance)"

echo "All checks passed."
