#!/usr/bin/env bash
# Static-analysis gate: run rrq-lint over the workspace and interpret
# its machine-readable output. Exit codes mirror rrq-benchdiff:
#
#   0  clean — every rule holds (or is suppressed with a reason)
#   1  violations — one or more diagnostics; they are printed below
#   2  infrastructure error — the linter failed to build or run, or its
#      JSON was unparseable (a broken gate must not read as "passed")
#
# Usage:
#   scripts/lint_gate.sh                # gate the workspace
#   scripts/lint_gate.sh --fix-forbid   # first insert missing
#                                       # #![forbid(unsafe_code)] attrs,
#                                       # then gate the result
#
# The committed lint_baseline.txt is applied: findings carried there are
# tolerated (and counted), stale entries fail the gate. A SARIF 2.1.0
# artifact is written to $LINT_SARIF (default: target/lint.sarif) for
# CI code-scanning uploads.
#
# The same check runs inside `cargo test -p rrq-lint` (workspace_clean)
# and as a step of scripts/check.sh; this standalone entry point exists
# for CI pipelines that want the JSON/SARIF artifacts and
# benchdiff-style exit codes. See DESIGN.md §11 for the rule catalogue.
set -uo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo build --release -p rrq-lint"
if ! cargo build --release -q -p rrq-lint; then
  echo "error: rrq-lint failed to build" >&2
  exit 2
fi

if [[ "${1:-}" == "--fix-forbid" ]]; then
  echo "==> rrq-lint --fix-forbid"
  ./target/release/rrq-lint --fix-forbid || exit 2
  shift
fi

out="$(mktemp)"
trap 'rm -f "$out"' EXIT

baseline="lint_baseline.txt"
if [[ ! -f "$baseline" ]]; then
  echo "error: committed $baseline is missing" >&2
  exit 2
fi

sarif="${LINT_SARIF:-target/lint.sarif}"
mkdir -p "$(dirname "$sarif")"

echo "==> rrq-lint --json --baseline $baseline --sarif $sarif"
./target/release/rrq-lint --json --baseline "$baseline" --sarif "$sarif" >"$out"
status=$?
if [[ $status -ne 0 && $status -ne 1 ]]; then
  echo "error: rrq-lint exited with status $status" >&2
  exit 2
fi

# The JSON shape is fixed and flat ({"files_scanned":N,"error_count":N,
# "baseline_suppressed":N,"diagnostics":[...]}), so the counts can be
# extracted without a JSON tool — keeping the gate as dependency-free
# as the linter itself.
errors=$(sed -n 's/.*"error_count": *\([0-9]\{1,\}\).*/\1/p' "$out")
files=$(sed -n 's/.*"files_scanned": *\([0-9]\{1,\}\).*/\1/p' "$out")
baselined=$(sed -n 's/.*"baseline_suppressed": *\([0-9]\{1,\}\).*/\1/p' "$out")
if [[ -z "$errors" || -z "$files" || -z "$baselined" ]]; then
  echo "error: could not parse rrq-lint JSON output:" >&2
  cat "$out" >&2
  exit 2
fi

if [[ ! -s "$sarif" ]]; then
  echo "error: SARIF artifact $sarif was not written" >&2
  exit 2
fi

if [[ "$errors" -ne 0 ]]; then
  echo "Lint gate FAILED — $errors violation(s) across $files files (baseline drift is a failure too):" >&2
  # Human-readable rerun for the log; the JSON artifact stays in $out
  # only for this run, CI should capture stdout of the --json call and
  # upload the SARIF artifact.
  ./target/release/rrq-lint --baseline "$baseline" >&2 || true
  exit 1
fi

echo "Lint gate passed ($files files clean, $baselined baselined; SARIF: $sarif)."
exit 0
