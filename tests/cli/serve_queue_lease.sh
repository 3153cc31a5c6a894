#!/bin/sh
# Gate: `serve` holds an exclusive lease on its queue.  While a polling
# daemon holds the queue, a second `serve --once` on it exits 2 naming
# the queue, adds no journal record and opens no store; a drain request
# then stops the first daemon cleanly, and the lease goes with it.
#
#   sh serve_queue_lease.sh path/to/rebench
set -u
rebench=$1
work=$(mktemp -d) || exit 1
pid=
trap 'test -n "$pid" && kill "$pid" 2>/dev/null; rm -rf "$work"' EXIT
cd "$work" || exit 1

fail() {
  echo "FAIL: $*"
  exit 1
}

id=$("$rebench" submit --queue q --benchmark babelstream --system noctua2 \
  -S model=omp --ntimes 10 | awk '{print $2}')
test -n "$id" || fail "submit failed"
"$rebench" serve --queue q --store s > daemon.txt 2>&1 &
pid=$!
tries=0
while test ! -f "q/verdicts/$id.json" && test $tries -lt 400; do
  sleep 0.05
  tries=$((tries + 1))
done
test -f "q/verdicts/$id.json" || fail "the polling daemon answered nothing"

cp q/service-journal.jsonl journal.before
"$rebench" serve --queue q --store s2 --once > second.txt 2> second.err
rc=$?
test $rc -eq 2 || fail "second daemon exited $rc, expected 2"
grep -q "queue q " second.err || fail "second daemon's error does not name the queue"
test ! -s second.txt || fail "second daemon printed on stdout"
cmp -s journal.before q/service-journal.jsonl || fail "the journal gained a record"
test ! -e s2 || fail "second daemon opened its store"

"$rebench" serve --queue q --request-drain > /dev/null || fail "drain request failed"
wait "$pid"
rc=$?
pid=
test $rc -eq 0 || fail "first daemon exited $rc after the drain request"
grep -q 'serve: drained' daemon.txt || fail "first daemon did not drain"

# The lease went with the daemon: the queue serves again.
"$rebench" serve --queue q --clear-drain > /dev/null || fail "clear-drain failed"
"$rebench" serve --queue q --store s --once > third.txt 2>&1 ||
  fail "serve after the first daemon's exit failed"

echo SERVE QUEUE LEASE OK
