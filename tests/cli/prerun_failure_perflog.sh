#!/bin/sh
# Gate: a failure before the run stage is perflog data too.  A suite
# whose every executed attempt fails its build (watchdog or injected
# flake) writes one result=error row per attempt, and `audit` reads them
# as a high failure rate; a concretize failure's row has an empty spec.
#
#   sh prerun_failure_perflog.sh path/to/rebench
set -u
rebench=$1
work=$(mktemp -d) || exit 1
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 1

fail() {
  echo "FAIL: $*"
  exit 1
}

"$rebench" suite --system isambard-macs:cascadelake --tag babelstream \
  --faults 'seed=13,crash=0.3,build=0.3,corrupt=0.3' --retries 3 \
  --repeats 2 --stage-timeout 30 --quarantine-after 1 --perflog P1 \
  > suite.txt
grep -q '^0/18 passed$' suite.txt || fail "suite: $(tail -3 suite.txt)"
test -s P1 || fail "the suite wrote no perflog"
grep -v 'result=error' P1 && fail "a row above is not result=error"
"$rebench" audit --perflog P1 > audit.txt 2>&1
status=$?
test $status -eq 1 || fail "audit exited $status: $(cat audit.txt)"
grep -q 'high-failure-rate' audit.txt || fail "audit: $(cat audit.txt)"

"$rebench" run --benchmark babelstream --system archer2 -S model=ocl \
  --perflog P2 > run.txt
test $? -eq 1 || fail "the ocl run did not fail: $(cat run.txt)"
grep -q '|spec=|spec_hash=|.*|fom=concretize|.*|result=error|' P2 ||
  fail "concretize row: $(cat P2)"

echo PRERUN FAILURE PERFLOG OK
