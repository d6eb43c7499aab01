#!/usr/bin/env bash
# Build demibench from source and run it; arguments pass through.
# Run from the repository root. The dune cache stays off so the build
# writes nothing outside the checkout.
set -eu
exec dune exec --root . --cache=disabled --display=quiet --no-print-directory \
  -- ./demibench/demibench.exe "$@"
