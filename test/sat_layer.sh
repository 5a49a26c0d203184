#!/bin/sh
# Prints the SAT layer's transcript that test/golden/sat_layer.txt pins: for
# each command, a "$ tvs ..." header, its stdout, its exit code and the
# cec.* and lint.sat.* counters of --metrics (runs of spaces squeezed, as
# column widths vary with --jobs). Run from the repository root:
#
#   TVS_JOBS=1 sh test/sat_layer.sh _build/default/bin/main.exe \
#     | diff test/golden/sat_layer.txt -
set -u
tvs=$1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
while IFS= read -r args; do
  echo "\$ tvs $args"
  code=0
  eval "\"\$tvs\" $args --metrics" > "$tmp/out" 2> "$tmp/err" || code=$?
  cat "$tmp/out"
  echo "exit $code"
  grep -E '^(cec|lint\.sat)\.' "$tmp/err" | tr -s ' '
done <<'EOF'
equiv fig1 --scan
equiv s27 --scan
equiv s444 --scan
equiv s526 --scan
equiv s641 --scan
equiv s953 --scan
equiv s1423 --scan
equiv s5378 --scan
equiv s9234 --scale 0.5 --scan
equiv s444 --scan --format json --jobs 4
equiv examples/verilog/mux4_ref.bench examples/verilog/mux4.v
equiv examples/verilog/c17.v examples/verilog/c17_defect.v
equiv s444 --scan --budget 50
lint s27
lint s444
lint s953
lint s1423
lint s5378 --sat-faults 8
tpi s27
tpi s444 --points 2 --verify
emit s444 $tmp/s444.v --scan --verify
EOF
