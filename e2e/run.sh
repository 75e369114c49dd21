#!/usr/bin/env bash
# Entry point of the end-to-end benchmark: build the benchmark and
# ns-serve from source, then run one workload. Run it from anywhere:
#
#   bash e2e/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
#
# The last line of standard output is the JSON summary; build output
# goes to standard error.
set -eu
cd "$(dirname "$0")/.."
if command -v dune >/dev/null 2>&1; then
  dune=(dune)
else
  dune=(opam exec -- dune)
fi
"${dune[@]}" build --root . ./e2e/e2e.exe ./bin/serve.exe 1>&2
exec ./_build/default/e2e/e2e.exe "$@"
