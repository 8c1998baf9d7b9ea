#!/usr/bin/env bash
# Builds the ledger from source (release profile, build tree .bench_build)
# and runs it from the repository root:
#   bash perfledger/run.sh --workload paper_tables|dag|serve --seed N --seconds S --trace 0|1
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --profile release --build-dir .bench_build ./perfledger/ledger.exe 1>&2
exec .bench_build/default/perfledger/ledger.exe "$@"
