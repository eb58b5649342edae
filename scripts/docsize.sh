#!/usr/bin/env bash
# docsize prints the bytes of the three long-form documents — CHANGES.md,
# DESIGN.md and EXPERIMENTS.md — and their total: the twin of loc.sh for
# ROADMAP item 7. With --max N it fails when the total is above N: CI
# passes the last total a PR set, so the documents cannot grow unnoticed.
# A docs PR lowers N; any other PR raises it only by its declared net,
# which CHANGES.md states.
set -euo pipefail
cd "$(dirname "$0")/.."

max=""
if [ "${1:-}" = "--max" ]; then
  max=${2:?--max needs a byte count}
elif [ $# -gt 0 ]; then
  echo "usage: $0 [--max N]" >&2
  exit 2
fi

total=0
for f in CHANGES.md DESIGN.md EXPERIMENTS.md; do
  n=$(wc -c <"$f")
  printf '%8d  %s\n' "$n" "$f"
  total=$((total + n))
done
printf '%8d  total\n' "$total"

if [ -n "$max" ] && [ "$total" -gt "$max" ]; then
  echo "docsize: $total bytes in CHANGES.md, DESIGN.md and EXPERIMENTS.md, above the ceiling of $max" >&2
  exit 1
fi
