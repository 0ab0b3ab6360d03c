#!/usr/bin/env bash
# Runs a `go test ... -run PATTERN PKG...` command line and fails when
# the pattern has gone stale: when some alternative of PATTERN (split at
# the |s outside parentheses, each cut at its first /) lists no test in
# any of the packages (`go test -list`), or when some package answers
# "[no tests to run]". A rename that leaves a pattern, or one name in
# it, matching nothing must fail the gate, not pass it silently.
set -euo pipefail

pattern= pkgs=()
for ((i = 3; i <= $#; i++)); do # $1 $2 are "go test"
  a=${!i}
  case $a in
  -run) i=$((i + 1)) && pattern=${!i} ;;
  -run=*) pattern=${a#-run=} ;;
  -*) ;; # every other flag this gate sees is boolean or -flag=value
  *) pkgs+=("$a") ;;
  esac
done

alternatives() {
  local p=$1 depth=0 cur= c j
  for ((j = 0; j < ${#p}; j++)); do
    c=${p:j:1}
    case $c in
    '(') depth=$((depth + 1)) ;;
    ')') depth=$((depth - 1)) ;;
    '|') if ((depth == 0)); then
      echo "$cur" && cur= && continue
    fi ;;
    esac
    cur+=$c
  done
  echo "$cur"
}

if [[ -n $pattern ]]; then
  while read -r alt; do
    listed=$(go test -list "${alt%%/*}" "${pkgs[@]}")
    if ! grep -qvE '^(ok|\?) ' <<<"$listed"; then
      echo "-run alternative '$alt' lists no test in ${pkgs[*]}" >&2
      exit 1
    fi
  done < <(alternatives "$pattern")
fi

out=$(mktemp)
trap 'rm -f "$out"' EXIT
"$@" 2>&1 | tee "$out"
if grep -qF '[no tests to run]' "$out"; then
  echo "a -run pattern matched no test in some package: $*" >&2
  exit 1
fi
