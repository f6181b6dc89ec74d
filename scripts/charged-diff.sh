#!/bin/sh
# Charged-time regression diff: run every deterministic bench experiment
# on revision REV and on the working tree, and diff their stdout.
#
#   scripts/charged-diff.sh REV      (or: make charged-diff REV=<rev>)
#
# REV is exported with `git archive` into a temporary directory and built
# there; the working tree is built in place. Each experiment runs as
# `bench/main.exe <e> --json` from a scratch directory, so no BENCH_*.json
# in the tree is overwritten. The exit status of every run is part of the
# compared output. Only the wall-clock lines differ run to run and are
# exempt: the `domains2` latency row and the `domains cutover` reconfig
# line. Exits 1 on any other difference.
set -eu

rev=${1:?usage: charged-diff.sh REV}
root=$(git rev-parse --show-toplevel)
experiments="fig1 fig2 table1 table2 table3 table4 table5 fig8 fig9 fig10
fig11 fig12 pmd stages ablations chaos latency ndr policy reconfig mc ccache"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
mkdir "$tmp/src" "$tmp/base" "$tmp/head"
git -C "$root" archive "$rev" | tar -x -C "$tmp/src"
echo "building $rev" >&2
(cd "$tmp/src" && dune build bench/main.exe)
echo "building the working tree" >&2
(cd "$root" && dune build bench/main.exe)

# run every experiment with one binary, one output file per experiment
capture() {
  exe=$1 out=$2
  for e in $experiments; do
    status=0
    (cd "$out" && "$exe" "$e" --json >"$e.out" 2>&1) || status=$?
    echo "exit: $status" >>"$out/$e.out"
  done
}

echo "running $rev" >&2
capture "$tmp/src/_build/default/bench/main.exe" "$tmp/base"
echo "running the working tree" >&2
capture "$root/_build/default/bench/main.exe" "$tmp/head"

exempt='^domains2 |^domains cutover:'
status=0
for e in $experiments; do
  grep -Ev "$exempt" "$tmp/base/$e.out" >"$tmp/base/$e.cmp" || true
  grep -Ev "$exempt" "$tmp/head/$e.out" >"$tmp/head/$e.cmp" || true
  if ! diff -u --label "$rev $e" --label "working tree $e" \
    "$tmp/base/$e.cmp" "$tmp/head/$e.cmp"; then
    status=1
  fi
done
if [ "$status" -eq 0 ]; then
  echo "charged-diff: no difference against $rev" >&2
fi
exit "$status"
