#!/usr/bin/env bash
# Before/after performance gate: runs the BENCHMARK.json workloads on
# BASE_REV and on the working tree, on this one host, and judges the
# pair with the working tree's bench/e2e/compare.exe.
#
#   scripts/bench_compare.sh BASE_REV
#
# BASE_REV is checked out as a detached worktree under .bench_compare/src
# (dune skips dot-directories, so the root build never sees it) and
# removed again on exit, failed runs included.  Every workload runs for
# seeds 1-3 on both sides at BENCHMARK.json's run_seconds, the side that
# goes first alternating from seed to seed; each run writes
# .bench_compare/{base,head}/<workload>-<seed>.json plus a .log of its
# output.  Exits with compare.exe's code: 0 no regression, 1 a metric
# regressed past its bound, 2 the two sides' host fingerprints differ.
set -euo pipefail

if [ "$#" -ne 1 ]; then
  echo "usage: scripts/bench_compare.sh BASE_REV" >&2
  exit 2
fi
base_rev=$1

cd "$(dirname "$0")/.."
root=$PWD
out=$root/.bench_compare
src=$out/src

git rev-parse --verify --quiet "$base_rev^{commit}" >/dev/null || {
  echo "bench_compare: $base_rev is not a commit" >&2
  exit 2
}

remove_worktree() {
  git worktree remove --force "$src" 2>/dev/null || rm -rf "$src"
  git worktree prune
}
trap remove_worktree EXIT
trap 'exit 130' INT TERM

remove_worktree
rm -rf "$out/base" "$out/head"
mkdir -p "$out/base" "$out/head"
git worktree add --quiet --detach "$src" "$base_rev"

bench=$(python3 -c '
import json
b = json.load(open("BENCHMARK.json"))
print(b["run_seconds"])
for w in b["workloads"]:
    print(w["name"])
')
seconds=$(head -n 1 <<<"$bench")
mapfile -t workloads < <(tail -n +2 <<<"$bench")

echo "bench_compare: building base $(git rev-parse --short "$base_rev") and head" >&2
(cd "$src" && dune build --root . --display quiet ./bench/e2e/e2e.exe)
dune build --root . --display quiet ./bench/e2e/e2e.exe ./bench/e2e/compare.exe

# One measured run of one side, from that side's checkout so the result
# records its commit.
run_side() {
  local side=$1 workload=$2 seed=$3 dir
  if [ "$side" = base ]; then dir=$src; else dir=$root; fi
  echo "bench_compare: seed $seed $workload $side" >&2
  (cd "$dir" && ./_build/default/bench/e2e/e2e.exe --workload "$workload" \
    --seed "$seed" --seconds "$seconds" \
    --json "$out/$side/$workload-$seed.json") >"$out/$side/$workload-$seed.log" || {
    echo "bench_compare: $side $workload seed $seed failed; see $out/$side/$workload-$seed.log" >&2
    exit 1
  }
}

for seed in 1 2 3; do
  if [ $((seed % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi
  for workload in "${workloads[@]}"; do
    for side in $order; do run_side "$side" "$workload" "$seed"; done
  done
done

set +e
./_build/default/bench/e2e/compare.exe --benchmark BENCHMARK.json "$out/base" "$out/head"
exit $?
