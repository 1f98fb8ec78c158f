#!/bin/sh
# Alternating parent/child pairs of the benchmark's `--all`, one seed per
# pair, then the benchmark's own `--compare` over each side's merged runs:
# the form ROADMAP house rule (i) asks of a change, whether it claims a gain
# or must move nothing. Prints where the runs came from, the `--compare`
# table, and per workload whether the exact metrics (compression_ratio,
# uplink_bytes_per_round) repeat seed for seed and how many ops failed.
#
#   sh scripts/compare_pairs.sh PARENT_CHECKOUT CHILD_CHECKOUT [FIRST_SEED] [PAIRS] \
#       > results/compare/<change>.txt
#
# Each checkout builds and runs the benchmark from its own source with the
# command BENCHMARK.json names. Pair k runs the parent first when k is even.
# Per-run results go to CHILD_CHECKOUT/benchmark/out/pairs/; a run whose
# results file is already there is not repeated, so an interrupted set
# resumes (delete the directory for a fresh one). Needs python3 to merge.
set -eu
parent=$(cd "$1" && pwd)
child=$(cd "$2" && pwd)
seed0=${3:-2501}
pairs=${4:-10}
dir="$child/benchmark/out/pairs"
mkdir -p "$dir"
bench() { # checkout, then the benchmark's arguments
    (cd "$1" && shift && cargo run --release --offline --quiet \
        --manifest-path benchmark/Cargo.toml -- "$@")
}
run() { # side checkout seed
    [ -f "$dir/$1-$3.json" ] && return
    # Exit 1 (a failed op) still writes a results file, counted below.
    bench "$2" --all --seed "$3" --out "$dir/$1-$3.json" >"$dir/$1-$3.log" 2>&1 || true
}
k=0
while [ "$k" -lt "$pairs" ]; do
    seed=$((seed0 + k))
    if [ $((k % 2)) -eq 0 ]; then
        run parent "$parent" "$seed"
        run child "$child" "$seed"
    else
        run child "$child" "$seed"
        run parent "$parent" "$seed"
    fi
    k=$((k + 1))
done

python3 - "$dir" "$seed0" "$pairs" >"$dir/exact.txt" <<'EOF'
import json, sys
d, seed0, pairs = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
seeds = range(seed0, seed0 + pairs)
runs = {(side, s): json.load(open(f"{d}/{side}-{s}.json"))
        for side in ("parent", "child") for s in seeds}
first = runs[("parent", seed0)]
print(f"# parent {runs[('parent', seed0)]['environment']['git_commit'][:7]}, "
      f"child {runs[('child', seed0)]['environment']['git_commit'][:7]}; "
      f"seeds {seed0}-{seed0 + pairs - 1}, one per pair, {first['seconds']} s a workload; "
      f"available_parallelism {first['environment']['available_parallelism']}, "
      f"simd {first['environment']['simd_active_level']}")
names = [w["name"] for w in first["workloads"]]
for side in ("parent", "child"):
    merged = {"workloads": []}
    for i, name in enumerate(names):
        metrics = {}
        for s in seeds:
            for m, v in runs[(side, s)]["workloads"][i]["end_to_end"].items():
                metrics.setdefault(m, {"values": []})["values"] += v["values"]
        merged["workloads"].append({"name": name, "end_to_end": metrics})
    json.dump(merged, open(f"{d}/{side}.json", "w"))
for i, name in enumerate(names):
    def per_seed(side, m):
        return [runs[(side, s)]["workloads"][i]["end_to_end"][m]["values"][0] for s in seeds]
    same = [m for m in ("compression_ratio", "uplink_bytes_per_round")
            if per_seed("parent", m) == per_seed("child", m)]
    failed = {side: sum(runs[(side, s)]["workloads"][i]["ops_failed"] for s in seeds)
              for side in ("parent", "child")}
    print(f"{name:<20} identical on every seed: {', '.join(same) or 'none'}; "
          f"ops_failed parent {failed['parent']}, child {failed['child']}")
EOF
head -n 1 "$dir/exact.txt"
bench "$child" --compare "$dir/parent.json" "$dir/child.json"
echo
tail -n +2 "$dir/exact.txt"
