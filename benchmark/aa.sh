#!/bin/bash
# A/A check: two sets of N runs per workload of the current tree, each
# run on another seed (the same seeds in both sets), then the set-to-set
# gap and the within-set spread of every end-to-end metric against its
# bound in BENCHMARK.json. Exits non-zero when a gap passes half its
# bound or a spread passes it. NOISE.md holds this script's output.
#
#   benchmark/aa.sh [N=10] [SECONDS=run_seconds]
set -eu
cd "$(dirname "$0")/.."
n=${1:-10}
out=benchmark/out/aa
rm -rf "$out"
mkdir -p "$out"
(cd benchmark && go build -o out/aa/ptlbench . && go build -o out/aa/aa ./aa)
seconds=()
if [ $# -ge 2 ]; then seconds=(--seconds "$2"); fi

echo "date: $(date -u +%Y-%m-%dT%H:%MZ), nproc: $(nproc), $(go version), N=$n per set"
for set in 1 2; do
  for i in $(seq 1 "$n"); do
    for w in rsync_ooo rsync_seq memwalk_ooo serve_closed; do
      "$out/ptlbench" --workload "$w" --seed $((1000 + i)) "${seconds[@]}" \
        > "$out/set$set-$w-$i.txt" 2>&1 || { echo "run failed: $out/set$set-$w-$i.txt" >&2; exit 1; }
    done
  done
done
"$out/aa" BENCHMARK.json "$out"
