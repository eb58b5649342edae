#!/usr/bin/env bash
# check-pkgdocs fails when any package in the module lacks a package-level
# doc comment (a comment block ending on the line directly above the
# package clause in at least one non-test file). CI runs it so the root
# package, every internal/* package and every command stays documented
# in the style of compilegate.go's package doc.
set -u
fail=0
for dir in $(go list -f '{{.Dir}}' ./...); do
  ok=0
  for f in "$dir"/*.go; do
    case "$f" in
    *_test.go) continue ;;
    esac
    [ -e "$f" ] || continue
    if awk '/^package [A-Za-z_]/ && prev ~ /^(\/\/|\*\/)/ { found = 1 }
            { prev = $0 }
            END { exit found ? 0 : 1 }' "$f"; then
      ok=1
      break
    fi
  done
  if [ "$ok" -eq 0 ]; then
    echo "missing package doc comment: $dir" >&2
    fail=1
  fi
done
exit $fail
