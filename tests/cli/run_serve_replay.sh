#!/bin/sh
# Gate: `run` and `serve` execute one campaign path.  A fault-injected
# run-mode invocation leaves the same manifest bytes whether `run --store`
# or `submit` + `serve --once` wrote it, and each replays byte-exact.
# `run` also honours the options its manifest records: --quarantine-after
# opens the circuit breaker, and --lanes changes the lane stamps that
# `profile` reads from the run's trace.
#
#   sh run_serve_replay.sh path/to/rebench
set -u
rebench=$1
work=$(mktemp -d) || exit 1
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 1

fail() {
  echo "FAIL: $*"
  exit 1
}

faulty="--benchmark babelstream --system archer2:compute --faults seed=3,node=0.7 --retries 0 --repeats 8"
"$rebench" run $faulty --store A > run.txt
grep -q 'manifest written' run.txt || fail "run wrote no manifest"
"$rebench" submit --queue q $faulty > /dev/null || fail "submit failed"
"$rebench" serve --queue q --store B --once > serve.txt || fail "serve --once failed"
cmp A/objects/$(cat A/refs/manifests/latest) B/objects/$(cat B/refs/manifests/latest) ||
  fail "run and serve wrote different manifests"
for store in A B; do
  "$rebench" replay --store $store > replay.txt ||
    fail "replay of $store's manifest diverged: $(cat replay.txt)"
  grep -q '1/1 artifact(s) byte-exact' replay.txt ||
    fail "replay of $store's manifest: $(cat replay.txt)"
done

# --verbose too: a quarantined result has no spec to print.
"$rebench" run $faulty --quarantine-after 1 --verbose > quarantine.txt
test $? -eq 1 || fail "run --quarantine-after 1 --verbose did not exit 1"
grep -q '^\[QUAR\] ' quarantine.txt || fail "--quarantine-after 1 quarantined nothing"

babel="--benchmark babelstream --system noctua2 -S model=omp --ntimes 10 --repeats 3"
"$rebench" run $babel --trace lanes8 > /dev/null || fail "run --trace failed"
"$rebench" run $babel --lanes 2 --trace lanes2 > /dev/null || fail "run --lanes 2 failed"
cmp -s lanes8/trace.jsonl lanes2/trace.jsonl && fail "--lanes 2 left the trace unchanged"
"$rebench" profile lanes2/trace.jsonl > profile.txt || fail "profile failed"
grep -q ' 2 lane(s))' profile.txt || fail "profile of a --lanes 2 run: $(head -1 profile.txt)"

echo RUN SERVE REPLAY OK
