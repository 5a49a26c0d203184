#!/usr/bin/env bash
# Build the benchmark and the tvs CLI from source, then run one workload:
#
#   bash perfbench/run.sh --workload stitch|faultgrade|serve-mixed \
#       --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout. Build output goes to stderr; stdout ends
# with the one-line JSON result.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/dune-project" ] || [ ! -d "$root/lib" ]; then
  echo "perfbench: $root is not a checkout of the repository (no dune-project or lib/)" >&2
  exit 2
fi

# Keep every build artefact inside the checkout: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root "$root" ./perfbench/main.exe ./bin/main.exe 1>&2

# Run on one CPU, the first this shell may use; the daemon of serve-mixed
# inherits it. The speed samples that scale every reported time must come
# from the CPU the work runs on.
run=("$root/_build/default/perfbench/main.exe" --tvs "$root/_build/default/bin/main.exe" "$@")
cpu=$(taskset -pc $$ 2>/dev/null | sed -n 's/.*: *\([0-9]*\).*/\1/p')
if [ -n "$cpu" ]; then
  exec taskset -c "$cpu" "${run[@]}"
fi
echo "perfbench: taskset unavailable, running unpinned" >&2
exec "${run[@]}"
