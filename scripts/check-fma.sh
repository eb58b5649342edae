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
#
# It also fails on any use, in those packages' non-test files, of a math
# function whose result Go does not specify exactly: the transcendental
# ones (Exp, Log, Pow, Sin, Atan, Cbrt, Erf, Gamma, Hypot, ...) have
# per-architecture assembly or are built from fusible arithmetic, so their
# last bits differ by architecture. Floor, Sqrt, Min, Max and the other
# exact functions stay allowed.
set -euo pipefail
cd "$(dirname "$0")/.."

pkgs=$(go list ./... | grep -v '/benchmark$')
fail=0
inexact='Exp|Exp2|Expm1|Log|Log10|Log1p|Log2|Pow|Sin|Cos|Tan|Sincos|Asin|Acos|Atan|Atan2|Sinh|Cosh|Tanh|Asinh|Acosh|Atanh|Cbrt|Erf|Erfc|Erfinv|Erfcinv|Gamma|Lgamma|J0|J1|Jn|Y0|Y1|Yn|Hypot'
# shellcheck disable=SC2086 # one argument per package
files=$(go list -f '{{$d := .Dir}}{{range .GoFiles}}{{$d}}/{{.}} {{end}}' $pkgs)
# shellcheck disable=SC2086 # one argument per file
uses=$(grep -nE "(^|[^[:alnum:]_.])math\.($inexact)\b" $files | sed "s|^$PWD/||" || true)
if [ -n "$uses" ]; then
  echo "math functions whose results differ by architecture:" >&2
  echo "$uses" >&2
  fail=1
else
  echo "no architecture-dependent math function"
fi
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
