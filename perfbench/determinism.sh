#!/bin/sh
# Two runs of one seed must give exactly equal simulated and count
# metrics.  Runs every workload twice per seed, untraced and traced, on
# two seeds, and compares those metrics.  From the root of a checkout:
#   sh perfbench/determinism.sh SEED SECOND_SEED
set -eu
[ $# -eq 2 ] || { echo "usage: sh perfbench/determinism.sh SEED SECOND_SEED" >&2; exit 2; }
mkdir -p perfbench/out
value() { sed -n "s/.*\"$1\":{\"value\":\([^,}]*\).*/\1/p" "$2"; }
status=0
for seed in "$1" "$2"; do
  for workload in paper_report corpus_verify daemon_mixed; do
    for trace in 0 1; do
      if [ "$trace" = 0 ]; then
        names="asip_speedup"
      else
        names="asip.target_cycles sim.instrs verify.findings service.memo_hits"
      fi
      for run in a b; do
        sh perfbench/run.sh --workload "$workload" --seed "$seed" --seconds 4 \
          --trace "$trace" 2>/dev/null | tail -n 1 > "perfbench/out/determinism-$run.json"
      done
      for name in $names; do
        a=$(value "$name" perfbench/out/determinism-a.json)
        b=$(value "$name" perfbench/out/determinism-b.json)
        if [ -z "$a" ] || [ "$a" != "$b" ]; then
          echo "determinism: $workload seed $seed: $name $a vs $b"
          status=1
        fi
      done
    done
  done
done
[ "$status" = 0 ] && echo "determinism: seeds $1 and $2 repeat exactly"
exit "$status"
