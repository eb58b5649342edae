#!/usr/bin/env bash
# check-fma fails when the compiler fuses a multiply and an add into one
# rounding (x*y + z compiled to FMADD and kin) anywhere in the non-test
# packages outside benchmark/. The Go spec allows that fusion; amd64
# never does it, but arm64, ppc64le, s390x and riscv64 do, and a fused
# site computes different bits there, so goldens and claim bands would
# hold on amd64 only. An explicit float64(x*y) around the product rounds
# it and prevents the fusion (DESIGN.md, "Determinism"). The script
# cross-compiles for each of those architectures with -S and prints the
# source line of every fused instruction it finds.
set -euo pipefail
cd "$(dirname "$0")/.."

pkgs=$(go list ./... | grep -v '/benchmark$')
fail=0
for arch in arm64 ppc64le s390x riscv64; do
  # shellcheck disable=SC2086 # one argument per package
  asm=$(GOARCH=$arch go build -gcflags=-S $pkgs 2>&1) || { echo "$asm" >&2; exit 1; }
  fused=$(grep -E '\s(FN?M(ADD|SUB)[DS]?)\s' <<<"$asm" | grep -oE '\([^)]*\.go:[0-9]+\)' | sed "s|($PWD/|(|" | sort -u || true)
  if [ -n "$fused" ]; then
    echo "$arch: fused multiply-add from" >&2
    echo "$fused" >&2
    fail=1
  else
    echo "$arch: no fused multiply-add"
  fi
done
exit $fail
