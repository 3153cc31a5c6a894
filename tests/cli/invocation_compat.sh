#!/bin/sh
# Gate: a campaign invocation is recorded without its unset options, and
# the run key still hashes every option.  A submission body as rebench
# wrote it before (every option, unset ones at their -1 and "" sentinels)
# is answered ran:clean.  `submit` of the same invocation now lands in a
# different, shorter file with no "retries" key, and the same store
# answers it `cached` under the same run key, citing the first verdict's
# manifest.
#
#   sh invocation_compat.sh path/to/rebench
set -u
rebench=$1
work=$(mktemp -d) || exit 1
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 1

fail() {
  echo "FAIL: $*"
  exit 1
}

# `submit --benchmark babelstream --system noctua2 -S model=omp
# --ntimes 10`, as written before unset options were omitted.
old=e3279965b1c6c6c2
mkdir q || exit 1
printf '%s%s%s%s%s%s\n' \
  '{"schema":"rebench.submission/1","invocation":{"mode":"run",' \
  '"system":"noctua2","account":"ec999","repeats":1,"benchmark":"babelstream",' \
  '"ntimes":10,"settings":[["model","omp"]],"tag":"","n":"","x":"",' \
  '"faults":"","retries":-1,"backoffBase":-1.000000,"backoffMultiplier":-1.000000,' \
  '"backoffMax":-1.000000,"quarantineAfter":-1,"stageTimeout":-1.000000,"lanes":-1,' \
  '"ciHalfwidth":-1.000000,"minRepeats":-1,"maxRepeats":-1,"withStore":true,"cache":true,"probe":""}}' \
  > q/sub-$old.json

field() {
  sed -n "s/.*\"$1\":\"\\([^\"]*\\)\".*/\\1/p" "$2"
}

"$rebench" serve --queue q --store S --once > serve1.txt ||
  fail "serve exited $?: $(cat serve1.txt)"
test "$(field verdict q/verdicts/$old.json)" = ran:clean ||
  fail "the old body: $(cat q/verdicts/$old.json)"
key=$(field key q/verdicts/$old.json)
manifest=$(field manifest q/verdicts/$old.json)

"$rebench" submit --queue q --benchmark babelstream --system noctua2 \
  -S model=omp --ntimes 10 > submit.txt || fail "submit exited $?"
new=$(sed -n 's/^submitted \([0-9a-f]*\) .*/\1/p' submit.txt)
test -f "q/sub-$new.json" || fail "submit: $(cat submit.txt)"
test "$new" != "$old" || fail "submit rewrote the old body's bytes"
test "$(wc -c < "q/sub-$new.json")" -lt "$(wc -c < q/sub-$old.json)" ||
  fail "the new body is no shorter: $(cat "q/sub-$new.json")"
grep -q '"retries"' "q/sub-$new.json" &&
  fail "the new body records the unset --retries: $(cat "q/sub-$new.json")"

"$rebench" serve --queue q --store S --once > serve2.txt ||
  fail "serve exited $?: $(cat serve2.txt)"
test "$(field verdict "q/verdicts/$new.json")" = cached ||
  fail "the new body: $(cat "q/verdicts/$new.json")"
test "$(field key "q/verdicts/$new.json")" = "$key" ||
  fail "the run key moved: $(cat "q/verdicts/$new.json")"
test "$(field manifest "q/verdicts/$new.json")" = "$manifest" ||
  fail "the cached verdict cites another manifest: $(cat "q/verdicts/$new.json")"

echo INVOCATION COMPAT OK
