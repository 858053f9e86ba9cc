#!/usr/bin/env bash
# Build the benchmark from source and run it from the repository root:
#
#   bash perfbench/run.sh --workload mm16_burst --seed 1 --seconds 12 --trace 0
#
# perfbench/src is a dune project of its own.  It is built in
# .bench_build/src, a staging copy of it beside a copy of the
# repository's lib/, so the repository's build and this one never mix.
# Build output goes to stderr; the benchmark's report and its final JSON
# line go to stdout.  Fails (non-zero, no JSON) outside a full checkout.
set -euo pipefail

if [[ ! -f dune-project || ! -d lib || ! -f perfbench/src/dune-project ]]; then
  echo "perfbench: run from the root of a full tcmm checkout" >&2
  exit 2
fi

command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
stage=.bench_build/src
rm -rf "$stage/lib" "$stage"/*.ml
mkdir -p "$stage"
cp -R lib "$stage/lib"
cp perfbench/src/dune-project perfbench/src/dune perfbench/src/*.ml "$stage/"
# The dune cache lives outside the checkout; keep every build file here.
dune build --root "$stage" --cache=disabled --profile release ./perfbench.exe >&2
exec "./$stage/_build/default/perfbench.exe" "$@"
