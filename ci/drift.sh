#!/usr/bin/env bash
# Output drift between two source trees: the same fixed commands run with each
# tree's src/ from one working directory, so the "input" paths in the reports
# match, and the output files that differ are listed.  Each side also runs its
# own demos, whose stdout is part of the product surface.
#
# Usage: ci/drift.sh BASE_TREE HEAD_TREE OUT_DIR
#
# BASE_TREE and HEAD_TREE each hold src/ and demos/.  OUT_DIR must not exist
# yet; it receives base/ and head/ with every output and exit_codes.txt.  The
# report goes to stdout: "Every output file is byte-identical." or the list of
# differing files, then the exit code, wall time and peak RSS of four large or
# cold commands at both sides.  Deliberate numerics changes show up here too,
# so the report does not gate: the script exits 0 whatever differs.
set -eo pipefail

if [ "$#" -ne 3 ]; then
  echo "usage: $0 BASE_TREE HEAD_TREE OUT_DIR" >&2
  exit 2
fi
if [ -e "$3" ]; then
  echo "$0: $3 already exists" >&2
  exit 2
fi
base_tree=$(cd "$1" && pwd) head_tree=$(cd "$2" && pwd)
mkdir -p "$(dirname "$3")"
drift="$(cd "$(dirname "$3")" && pwd)/$(basename "$3")"
head_src="$head_tree/src" base_src="$base_tree/src"
head_demos="$head_tree/demos" base_demos="$base_tree/demos"
mkdir -p "$drift/run/in"
cd "$drift/run"
curve() { printf '{"param": "s", "y": "%s", "z": "%s", "s_min": %s, "s_max": %s, "samples": %s}' "$@"; }
curve "1.5*cosh(s)" "1.5*sinh(s)" -2 2 10001 > in/bulk.json
curve "s^2/2" "s^3/6" 0 2 201 > in/lightlike.json
# lightlike at rows 0 and 4,000: null rows in two blocks of 2,048
curve "s^2/2" "s^3/6" -1 2 6001 > in/lightlike_blocks.json
# two full blocks, ending on a block boundary
curve "cosh(s)" "sinh(s)" 0 1 4096 > in/block_edge.json
curve "cosh(s)" "sinh(s)" 0 0.005 1001 > in/short.json
# kappa = 1e70, a finite frame: its stderr is kept, since it should stay
# empty
curve "1e70*cosh(s)" "1e70*sinh(s)" 0 1 51 > in/scaled.json
# y''^2 - z''^2 finite, 2 y'' y''' (in kappa') overflowing from s = 0.849:
# stderr kept, since it should hold one line and no numpy warning
curve "exp(400*s)" "0" 0.84 0.855 11 > in/kappa_d1.json
# y and z swapped, header kept: the rectifying curve with <b, b> = +1
mirror() { awk -F, -v OFS=, 'NR > 1 { y = $3; $3 = $4; $4 = y } 1' "$1" > "$2"; }
# one field appended to line 3: a row wider than the header
widen() { awk 'NR == 3 { $0 = $0 ",0" } 1' "$1" > "$2"; }
# stderr is dropped unless the caller names a file in $stderr
run() {
  code=0
  PYTHONPATH="${!src_var}" python -m pgcurves.cli "$@" > /dev/null 2>> "${stderr:-/dev/null}" || code=$?
  echo "$*: exit $code" >> out/exit_codes.txt
}
for side in base head; do
  src_var="${side}_src"
  mkdir out
  run analyze --input in/bulk.json --output out/bulk
  run analyze --input in/lightlike.json --output out/lightlike
  run analyze --input in/lightlike_blocks.json --output out/lightlike_blocks
  run plot-data --input in/lightlike_blocks.json --output out/lightlike_blocks_series
  run analyze --input in/block_edge.json --output out/block_edge
  run plot-data --input in/bulk.json --output out/bulk_series
  run plot-data --input in/lightlike.json --output out/lightlike_series
  run classify --input in/bulk.json --output out/bulk_verdict.json
  run synthesize --kappa 1 --tau 0.5 --frames --output out/synth.csv
  run synthesize --m1=0.5 --n1=1.2 --kappa 1 --frames --output out/rect.csv
  run classify --input out/rect.csv --output out/rect_verdict.json
  run plot-data --input out/rect.csv --output out/rect_series
  run analyze --input out/synth.csv --output out/synth_analysis
  widen out/rect.csv out/rect_long.csv
  run analyze --input out/rect_long.csv --output out/rect_long_analysis
  mirror out/rect.csv out/rect_mirror.csv
  run classify --input out/rect_mirror.csv --output out/rect_mirror_verdict.json
  run synthesize --kappa 2 --tau 0.7 --output out/const.csv
  run classify --input out/const.csv --output out/const_verdict.json
  run synthesize --kappa 1 --tau 1000 --output out/overflow.csv
  run classify --input in/short.json --tol-classify 1e-5 --output out/short_verdict.json
  stderr=out/scaled.stderr run analyze --input in/scaled.json --output out/scaled
  stderr=out/scaled.stderr run classify --input in/scaled.json --output out/scaled_verdict.json
  stderr=out/kappa_d1.stderr run analyze --input in/kappa_d1.json --output out/kappa_d1
  stderr=out/kappa_d1.stderr run classify --input in/kappa_d1.json --output out/kappa_d1_verdict.json
  stderr=out/kappa_d1.stderr run plot-data --input in/kappa_d1.json --output out/kappa_d1_series
  run verify --seed 0 --output out/verify.json
  run verify --seed 1 --output out/verify_seed1.json
  run verify --seed 0 --tol rectifying_slope=1e-12 --output out/verify_slope.json
  run verify --seed 0 --tol rectifying_properties=1e-12 --output out/verify_properties.json
  stderr=out/verify_negative.stderr run verify --seed -1 --output out/verify_negative.json
  demos_var="${side}_demos"
  for demo in "${!demos_var}"/*.py; do
    name=$(basename "$demo" .py)
    code=0
    PYTHONPATH="${!src_var}" python "$demo" > "out/$name.stdout" 2> /dev/null || code=$?
    echo "$name: exit $code" >> out/exit_codes.txt
  done
  mv out "$drift/$side"
done
cd "$drift"
if diff -rq base head > drift.txt; then
  echo "Every output file is byte-identical."
else
  echo '```'
  cat drift.txt
  echo '```'
fi
# the exit code, wall time around main() and peak RSS of one command
# per side, each in a fresh interpreter: a 200,001-sample analyze and
# plot-data, a cold classify of a sampled CSV (its first spline fit
# loads LAPACK) and a cold verify; reported, not gated
curve "1.5*cosh(s)" "1.5*sinh(s)" -2 2 200001 > reference.json
peak() {
  PYTHONPATH="$1" python -c 'import resource, sys, time; from pgcurves.cli import main; t = time.perf_counter(); code = main(sys.argv[1:]); print(f"exit {code}, {time.perf_counter() - t:.2f} s, peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MB")' "${@:2}"
}
sides() { echo "base $(peak "$base_src" "$@"); head $(peak "$head_src" "$@")"; }
echo "200,001-sample analyze: $(sides analyze --input reference.json --output reference_analysis)"
echo "200,001-sample plot-data: $(sides plot-data --input reference.json --output reference_series)"
echo "cold sampled classify: $(sides classify --input head/rect.csv --output rect_verdict.json)"
echo "cold verify --seed 0: $(sides verify --seed 0 --output verify.json)"
