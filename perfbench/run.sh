#!/bin/sh
# Run one benchmark workload from the root of an asipfb checkout:
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Builds the CLI and the harness first (build output goes to stderr);
# the last line of stdout is the JSON result.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the root of an asipfb checkout" >&2
  exit 2
fi
# No shared build cache: the benchmark writes only inside the checkout.
DUNE_CACHE=disabled dune build --root . bin/asipfb_cli.exe perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
