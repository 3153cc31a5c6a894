#!/bin/sh
# Gate: concurrent writers keep every history segment.  Each round starts
# four `rebench run --store S` campaigns at once, on four systems, so
# each appends a distinct segment while the others may move the head.
# The records reachable from the head (`history --store S --json`) must
# equal the sum of the "history: appended N record(s)" lines.
#
#   sh store_concurrent_append.sh path/to/rebench
set -u
rebench=$1
work=$(mktemp -d) || exit 1
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 1

fail() {
  echo "FAIL: $*"
  exit 1
}

rounds=5
round=0
while test $round -lt $rounds; do
  for system in noctua2 archer2 cosma8 csd3; do
    "$rebench" run --benchmark babelstream --system "$system" -S model=omp \
      --ntimes 10 --store S > "run-$round-$system.txt" 2>&1 &
  done
  wait
  round=$((round + 1))
done

appended=$(cat run-*.txt | sed -n 's/^history: appended \([0-9]*\) record(s).*/\1/p' |
  awk '{ sum += $1 } END { print sum + 0 }')
campaigns=$(grep -l '^history: appended' run-*.txt | wc -l)
test "$campaigns" -eq $((rounds * 4)) ||
  fail "$campaigns of $((rounds * 4)) campaigns appended history"
"$rebench" history --store S --json > history.json ||
  fail "history --store S --json failed"
reachable=$(grep -o '"seq":' history.json | wc -l)
test "$reachable" -eq "$appended" ||
  fail "history holds $reachable record(s), campaigns appended $appended"

echo "STORE CONCURRENT APPEND OK ($reachable records)"
