#!/bin/sh
# Translation-validation smoke: the semantic refinement checker must
# (a) prove every Table 1 benchmark x level schedule refines its
#     original (zero refinement failures),
# (b) hold over a seeded generated-corpus sample run under --verify tv
#     (no additional findings relative to --verify full, i.e. zero
#     refinement findings; and zero crashes/timeouts/quarantines),
# (c) still reject: a deliberately corrupted schedule must fail with a
#     reference-interpreter-confirmed counterexample.
# Usage: sh scripts/tv_smoke.sh [SEED] [COUNT]   (default 7, 25)
set -eu

seed=${1:-7}
count=${2:-25}

dune build bin/asipfb_cli.exe

workdir=$(mktemp -d tv_smoke.XXXXXX)
trap 'rm -rf "$workdir"' EXIT

run="dune exec bin/asipfb_cli.exe --"

# (a) Full suite: every benchmark x level proves Refines; the
# subcommand exits non-zero on any refinement failure, so `set -e` is
# the gate.
$run equiv > "$workdir/suite.out"
grep -q " 0 refinement failure(s)" "$workdir/suite.out" || {
  echo "tv smoke: suite reports refinement failures" >&2
  cat "$workdir/suite.out" >&2
  exit 1
}

# (b) Corpus sample under tv: the run must stay crash-free, and the tv
# findings count must equal the full findings count on the same spec —
# any surplus would be a refinement failure or counterexample finding.
$run corpus --seed "$seed" --count "$count" -j 4 \
  --verify full --retries 2 --retry-backoff 0.01 --task-timeout 60 \
  > "$workdir/full.out"
$run corpus --seed "$seed" --count "$count" -j 4 \
  --verify tv --retries 2 --retry-backoff 0.01 --task-timeout 60 \
  > "$workdir/tv.out"

grep -q " 0 crashed, 0 timeout(s), 0 quarantined" "$workdir/tv.out" || {
  echo "tv smoke: corpus run under --verify tv reports failures" >&2
  cat "$workdir/tv.out" >&2
  exit 1
}

full_findings=$(sed -n 's/.*verify findings \([0-9]*\).*/\1/p' "$workdir/full.out")
tv_findings=$(sed -n 's/.*verify findings \([0-9]*\).*/\1/p' "$workdir/tv.out")
[ -n "$full_findings" ] && [ -n "$tv_findings" ] || {
  echo "tv smoke: could not read verify findings counters" >&2
  exit 1
}
[ "$tv_findings" = "$full_findings" ] || {
  echo "tv smoke: corpus refinement findings: tv=$tv_findings full=$full_findings" >&2
  exit 1
}

# (c) The checker still rejects: a corrupted fir schedule must fail
# with a reference-confirmed counterexample.
if $run equiv fir -O 2 --corrupt edit-const --seed 3 \
    > "$workdir/corrupt.out" 2>&1; then
  echo "tv smoke: corrupted schedule was not rejected" >&2
  cat "$workdir/corrupt.out" >&2
  exit 1
fi
grep -q "counterexample" "$workdir/corrupt.out" || {
  echo "tv smoke: rejection carries no counterexample" >&2
  cat "$workdir/corrupt.out" >&2
  exit 1
}
grep -q "counterexample (attempt [0-9]*, ref-confirmed)" "$workdir/corrupt.out" || {
  echo "tv smoke: counterexample is not reference-confirmed" >&2
  cat "$workdir/corrupt.out" >&2
  exit 1
}

echo "tv smoke: suite 12x3 refines, corpus sample (seed $seed count $count) clean under tv, corrupted schedule rejected with a reference-confirmed counterexample"
