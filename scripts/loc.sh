#!/usr/bin/env bash
# loc prints the non-test Go lines (comments and blanks included, as
# `wc -l` counts them) of every package outside benchmark/, and their
# total — the number the measurement protocol asks every PR to report
# per package. With --max N it fails when the total is above N: CI passes
# the total of the last PR that lowered it, so ROADMAP aim 2's "non-test
# LoC should fall" is a ratchet. Lower N when a PR removes code; raising
# it needs a reason in CHANGES.md.
set -euo pipefail
cd "$(dirname "$0")/.."

max=""
if [ "${1:-}" = "--max" ]; then
  max=${2:?--max needs a line count}
elif [ $# -gt 0 ]; then
  echo "usage: $0 [--max N]" >&2
  exit 2
fi

table=$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -print0 |
  xargs -0 wc -l |
  awk '$2 != "total" { dir = $2; sub(/\/[^\/]*$/, "", dir); lines[dir] += $1 }
       END { for (dir in lines) printf "%7d  %s\n", lines[dir], dir }' |
  sort -k2)
total=$(awk '{ n += $1 } END { print n }' <<<"$table")
echo "$table"
printf '%7d  total\n' "$total"

if [ -n "$max" ] && [ "$total" -gt "$max" ]; then
  echo "loc: $total non-test Go lines outside benchmark/, above the ceiling of $max" >&2
  exit 1
fi
