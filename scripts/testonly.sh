#!/usr/bin/env bash
# testonly prints every exported function and method declared in non-test
# Go outside benchmark/ whose name no non-test Go file mentions (benchmark/
# included) outside its own declaration and comments: a capability only
# tests reach. Each line is "dir.Name" or "dir.Recv.Name". It fails when a
# printed name has no line in scripts/testonly.txt ("name  reason"; "#"
# starts a comment line), or when that list keeps a name that is no longer
# printed, so the list says why each test-only name stays and cannot go
# stale. The grep is by name, so a name another file also uses hides; it
# is a ratchet, not a proof.
set -euo pipefail
cd "$(dirname "$0")/.."

list=scripts/testonly.txt
files=$(find . -name '*.go' ! -name '*_test.go' | sed 's|^\./||' | sort)

found=$(
  for f in $files; do
    case "$f" in benchmark/*) continue ;; esac
    dir=$(dirname "$f")
    dir=${dir#.}
    grep -nE '^func ' "$f" | sed -n -E \
      -e 's/^([0-9]+):func ([A-Z][A-Za-z0-9_]*)[[(].*/\1 \2 \2/p' \
      -e 's/^([0-9]+):func \(([A-Za-z0-9_]+ )?\*?([A-Za-z0-9_]+)(\[[^]]*\])?\) ([A-Z][A-Za-z0-9_]*)[[(].*/\1 \5 \3.\5/p' |
      while read -r line name key; do
        # Whole-input counts, not grep -q: an early exit would break the
        # pipe and, under pipefail, read as "no mention".
        elsewhere=$(grep -lw -- "$name" $files | grep -cvx -- "$f" || true)
        here=$(grep -nw -- "$name" "$f" | grep -v "^$line:" | grep -cEv '^[0-9]+:[[:space:]]*//' || true)
        if [ "$elsewhere" -eq 0 ] && [ "$here" -eq 0 ]; then
          echo "${dir:+$dir.}$key"
        fi
      done
  done | sort -u
)
kept=$(sed -e '/^#/d' -e 's/[[:space:]].*//' -e '/^$/d' "$list" | sort -u)

[ -n "$found" ] && echo "$found"
status=0
while read -r key; do
  [ -n "$key" ] || continue
  echo "testonly: $key has no non-test caller and no line in $list" >&2
  status=1
done < <(comm -23 <(echo "$found") <(echo "$kept"))
while read -r key; do
  [ -n "$key" ] || continue
  echo "testonly: $list keeps $key, which is gone or has a non-test caller now" >&2
  status=1
done < <(comm -13 <(echo "$found") <(echo "$kept"))
exit $status
