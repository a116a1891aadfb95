#!/bin/bash
# Alternating parent/change runs of one benchmark workload:
#   pairs.sh PARENT CHANGE WORKLOAD SECONDS FIRST_SEED N OUTPREFIX
# PARENT and CHANGE are two checkouts; odd seeds run the parent first,
# even seeds the change. Each run's result line, tagged with its seed,
# is appended to OUTPREFIX-parent.jsonl / OUTPREFIX-change.jsonl.
parent=$1; change=$2; workload=$3; seconds=$4; seed0=$5; n=$6; out=$7
for i in $(seq 0 $((n - 1))); do
  seed=$((seed0 + i))
  if [ $((seed % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
  for side in $order; do
    if [ "$side" = parent ]; then tree=$parent; else tree=$change; fi
    python3 "$tree/benchmarks/perf/run.py" --workload "$workload" \
      --seconds "$seconds" --seed "$seed" | tail -n 1 | python3 -c "
import json, sys
run = json.load(sys.stdin)
run.update(seed=$seed, side='$side', workload='$workload')
print(json.dumps(run))" >> "$out-$side.jsonl"
  done
done
