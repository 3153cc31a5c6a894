#!/bin/sh
# Gate: a submission with a malformed -S value is filed failed:permanent
# (naming the setting) and the daemon moves on to the next submission,
# instead of aborting on every restart before its journal claim.
#
#   sh serve_bad_setting.sh path/to/rebench
set -u
rebench=$1
work=$(mktemp -d) || exit 1
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 1

fail() {
  echo "FAIL: $*"
  exit 1
}

bad=$("$rebench" submit --queue q --benchmark babelstream --system noctua2 -S model=omp -S array_size=abc | awk '{print $2}')
good=$("$rebench" submit --queue q --benchmark babelstream --system noctua2 -S model=omp --ntimes 10 | awk '{print $2}')
test -n "$bad" && test -n "$good" || fail "submit failed"
"$rebench" serve --queue q --store s --once > serve.txt 2>&1
rc=$?
test $rc -eq 0 || fail "serve --once exited $rc"
grep -q '"verdict":"failed:permanent"' "q/verdicts/$bad.json" || fail "bad submission not failed:permanent"
grep -q 'array_size' "q/verdicts/$bad.json" || fail "verdict does not name array_size"
grep -q '"verdict":"ran:clean"' "q/verdicts/$good.json" || fail "good submission not ran:clean"

echo SERVE BAD SETTING OK
