#!/bin/sh
# Build the end-to-end benchmark from this checkout's sources and run it:
#
#   sh bench/e2e/run.sh --workload W --seed S --seconds T --trace 0|1
#
# Run from the root of the repository.  The build is dune's, confined to
# ./_build (no shared cache); its output goes to stderr, so stdout holds
# only the benchmark's lines, the last of which is the JSON result.
set -e
dune build --root . --cache=disabled --display=quiet ./bench/e2e/main.exe 1>&2
exec ./_build/default/bench/e2e/main.exe "$@"
