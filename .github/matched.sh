#!/usr/bin/env bash
# Runs a `go test -run PATTERN ...` command line and fails when any
# package answers "[no tests to run]": a rename that leaves a pattern
# matching nothing must fail the gate, not pass it silently.
set -euo pipefail
out=$(mktemp)
trap 'rm -f "$out"' EXIT
"$@" 2>&1 | tee "$out"
if grep -qF '[no tests to run]' "$out"; then
  echo "a -run pattern matched no test in some package: $*" >&2
  exit 1
fi
