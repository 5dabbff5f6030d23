#!/usr/bin/env bash
# Build the benchmark, run every workload (untraced over SEEDS, then
# one traced run), print every metric by name, and gather the runs
# into one result set that `compare` accepts.
#
#   benchmark/run.sh                    # full run, seeds 1..3
#   SEEDS="1 2 3 4 5" benchmark/run.sh  # more runs per workload
#   SMOKE=1 benchmark/run.sh            # --scale 0.05, 1 s per run, one traced run, < 15 s
#
# Result set: benchmark/out/results.json (override with RESULTS=...).
# Two result sets of the same or different code:
#   hgs-benchmark compare a.json b.json
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${SMOKE:-0}" = 1 ]; then
    seeds=${SEEDS:-1} seconds=${SECONDS_PER_RUN:-1} scale=0.05
else
    seeds=${SEEDS:-1 2 3} seconds=${SECONDS_PER_RUN:-15} scale=1
fi
out=${OUT:-benchmark/out}
results=${RESULTS:-$out/results.json}

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin=${CARGO_TARGET_DIR:-benchmark/target}/release/hgs-benchmark

files=()
for workload in cold_mixed warm_hot scan_over_budget ingest_serve labeled_taf; do
    for seed in $seeds; do
        echo "== $workload seed $seed"
        "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
            --trace 0 --scale "$scale" --out "$out" | sed '$d'
        files+=("$out/$workload.seed$seed.json")
    done
    # The smoke traces one workload only: a traced run adds ~2.5 s of probes.
    if [ "${SMOKE:-0}" = 1 ] && [ "$workload" != cold_mixed ]; then continue; fi
    first=${seeds%% *}
    echo "== $workload seed $first (traced)"
    "$bin" --workload "$workload" --seed "$first" --seconds "$seconds" \
        --trace 1 --scale "$scale" --out "$out" | sed '$d'
    files+=("$out/$workload.seed$first.traced.json")
done

{
    echo "["
    for i in "${!files[@]}"; do
        [ "$i" -gt 0 ] && echo ","
        cat "${files[$i]}"
    done
    echo "]"
} > "$results"
echo "result set: $results (spans: $out/trace.<workload>.json)"
