#!/usr/bin/env bash
# Build the benchmark from source, then run it.
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   bash benchmark/run.sh suite [--seed N] [--seconds S]
#   bash benchmark/run.sh compare PARENT.jsonl... -- CHANGE.jsonl...
#
# Run from the repository root.  The build goes to .bench_build with the
# release profile and dune's shared cache off, so everything it writes
# stays inside the checkout; build output goes to stderr, leaving the
# program's result as the last line of stdout.
set -euo pipefail
cd "$(dirname "$0")/.."

if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi

build_dir=.bench_build
dune build --root . --build-dir "$build_dir" --profile release --cache disabled \
  ./benchmark/main.exe 1>&2

case "${1:-}" in
  run | suite | compare) ;;
  *) set -- run "$@" ;;
esac
exec "$build_dir/default/benchmark/main.exe" "$@"
