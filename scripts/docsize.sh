#!/usr/bin/env bash
# docsize prints the bytes of the three long-form documents — CHANGES.md,
# DESIGN.md and EXPERIMENTS.md — and their total: the twin of loc.sh for
# ROADMAP item 7. With --max N it fails when the total is above N: CI
# passes the last total a PR set, so the documents cannot grow unnoticed.
# A docs PR lowers N; any other PR raises it only by its declared net,
# which CHANGES.md states. It also fails when the newest CHANGES.md entry
# (its last "- " line and the indented lines under it) is above 20 lines
# or 2 KB, ROADMAP item 8a's shape for an entry.
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

read -r lines bytes < <(LC_ALL=C awk '
  /^- / { n = 0; b = 0; in_entry = 1 }
  in_entry && /^(- |  )/ { n++; b += length($0) + 1; next }
  { in_entry = 0 }
  END { print n, b }' CHANGES.md)
printf 'newest CHANGES.md entry: %d lines, %d bytes\n' "$lines" "$bytes"
if [ "$lines" -gt 20 ] || [ "$bytes" -gt 2048 ]; then
  echo "docsize: the newest CHANGES.md entry has $lines lines and $bytes bytes, above 20 lines or 2048 bytes" >&2
  exit 1
fi
