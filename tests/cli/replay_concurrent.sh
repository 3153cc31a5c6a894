#!/bin/sh
# Gate: concurrent replays of one manifest keep apart.  A passing
# `suite --trace --store S` campaign is replayed by four `replay --store
# S` at once, for several rounds.  Each replay builds its scratch store
# in a directory of its own under TMPDIR, so every one exits 0 with
# `2/2 artifact(s) byte-exact`, and none leaves its directory behind.
#
#   sh replay_concurrent.sh path/to/rebench
set -u
rebench=$1
work=$(mktemp -d) || exit 1
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 1
mkdir tmp || exit 1
TMPDIR=$work/tmp
export TMPDIR

fail() {
  echo "FAIL: $*"
  exit 1
}

"$rebench" suite --system noctua2 --tag std-ranges --repeats 2 --trace t \
  --store S > suite.txt 2>&1 || fail "suite failed: $(cat suite.txt)"

rounds=5
round=0
while test $round -lt $rounds; do
  pids=
  for i in 1 2 3 4; do
    "$rebench" replay --store S > "replay-$round-$i.txt" 2>&1 &
    pids="$pids $!"
  done
  i=0
  failed=
  for pid in $pids; do
    i=$((i + 1))
    wait "$pid" || failed="$failed $i"
  done
  for i in 1 2 3 4; do
    grep -q '^replay: 2/2 artifact(s) byte-exact$' "replay-$round-$i.txt" ||
      failed="$failed $i"
  done
  test -z "$failed" ||
    fail "round $round, replay(s)$failed: $(cat replay-$round-*.txt)"
  round=$((round + 1))
done

left=$(ls tmp | grep '^rebench-replay-')
test -z "$left" || fail "scratch directories left in TMPDIR: $left"

echo "REPLAY CONCURRENT OK ($((rounds * 4)) replays)"
