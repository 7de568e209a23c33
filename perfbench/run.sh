#!/usr/bin/env bash
# Build the benchmark and the fpgrind CLI from source, then run one
# workload:
#
#   bash perfbench/run.sh --workload suite-full --seed 1 --seconds 20 --trace 0
#
# Run from the root of a checkout. Build progress goes to stderr; the
# last line of stdout is the JSON result.
set -euo pipefail
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
export DUNE_CACHE=disabled
dune build --root . --display quiet perfbench/perfbench.exe bin/fpgrind_cli.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe --cli ./_build/default/bin/fpgrind_cli.exe "$@"
