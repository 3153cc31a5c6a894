#!/bin/sh
# Gate: a command-line error exits 2, names the offending flag on stderr
# and prints nothing on stdout; an error outside the command line (here a
# filesystem one) exits 1 with a message instead of aborting.
#
#   sh usage_errors.sh path/to/rebench
set -u
rebench=$1
work=$(mktemp -d) || exit 1
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 1

fail() {
  echo "FAIL: $*"
  exit 1
}

# expect_exit CODE NAME ARGS...: `rebench ARGS` exits CODE and its stderr
# contains NAME.
expect_exit() {
  code=$1
  name=$2
  shift 2
  "$rebench" "$@" > out.txt 2> err.txt
  rc=$?
  test "$rc" -eq "$code" || fail "rebench $* exited $rc, expected $code"
  grep -q -- "$name" err.txt || fail "rebench $*: stderr does not name $name"
}

# expect_usage_error NAME ARGS...: exit 2, NAME on stderr, empty stdout.
expect_usage_error() {
  expect_exit 2 "$@"
  test ! -s out.txt || fail "rebench $*: usage error printed on stdout"
}

suite="suite --system noctua2 --tag std-ranges"
babel="run --benchmark babelstream --system noctua2 -S model=omp --ntimes 10"

# Unknown options are errors, and nothing runs before the check.
expect_usage_error --jbos $suite --jbos 8
expect_usage_error --stroe $suite --stroe st
test ! -e st || fail "--stroe created a store"
# Numbers are whole tokens, and a value the code would clamp, ignore or
# read as unset is out of range.
expect_usage_error --threshold compare --before a.log --after a.log --threshold 0.05abc
expect_usage_error --retries $suite --retries=-1
expect_usage_error --jobs $suite --jobs 0
expect_usage_error --jobs $suite --jobs abc
expect_usage_error --stage-timeout $suite --stage-timeout abc
expect_usage_error --ntimes run --benchmark babelstream --system noctua2 --ntimes abc
expect_usage_error --quarantine-after serve --queue q --store s --once --quarantine-after 0
test ! -e q || fail "a rejected serve touched its queue"
# Values parsed past the option table are whole tokens too: a numeric
# prefix is neither a fault seed nor a port.
expect_usage_error --faults $babel --faults 'seed=13x,crash=0.3'
expect_usage_error --faults $babel --faults 'seed=abc'
expect_usage_error --faults $suite --faults 'crash=0.3x'
expect_usage_error --faults submit --queue q --benchmark babelstream --faults 'seed=13x'
expect_usage_error --listen serve --queue q --store s --once --listen 127.0.0.1:80x
expect_usage_error --listen serve --queue q --store s --once --listen 127.0.0.1:70000
expect_usage_error --listen serve --queue q --store s --once --listen nohost:0
test ! -e q || fail "a rejected serve or submit touched its queue"
# A malformed -S value names the setting.
expect_usage_error num_tasks run --benchmark hpcg --system noctua2 -S num_tasks=x
# A flag takes no value, and the token after it is an operand.
expect_usage_error --check history --store st --check=yes
"$rebench" spec --trace hpgmg%gcc --system cosma8 > spec.txt 2>&1 || fail "spec --trace <spec> failed"
grep -q 'mvapich@2.3.6' spec.txt && grep -q '^trace:' spec.txt || fail "spec --trace output"

# The generated usage documents every option the code reads.
"$rebench" > out.txt 2> usage.txt
test $? -eq 2 || fail "bare rebench did not exit 2"
for flag in --ntimes --verbose --backoff-mult --crash-after; do
  grep -q -- "$flag" usage.txt || fail "usage omits $flag"
done

# A run that fails before it has a spec exits 1, even under --verbose.
"$rebench" $babel -S model=bogus --verbose > out.txt 2> err.txt
test $? -eq 1 || fail "a concretize failure under --verbose did not exit 1"
grep -q 'concretize \[permanent\]' out.txt || fail "concretize failure not reported"
# A manifest naming a campaign mode other than run or suite is refused.
"$rebench" $babel --store mst > /dev/null || fail "run --store failed"
sed 's/"mode":"run"/"mode":"bogus"/' mst/objects/$(cat mst/refs/manifests/latest) > bogus.json
expect_exit 1 "mode must be run or suite (got 'bogus')" replay bogus.json

# Filesystem errors exit 1 with a message, never abort.
touch file
expect_exit 1 'rebench: ' $babel --trace file
expect_exit 1 'rebench: ' serve --queue file --store s2 --once
expect_exit 1 'rebench: ' status --queue missing
# The trace is published with the checked writer: an unwritable
# DIR/trace.jsonl is an error, not a success message.
mkdir -p tdir/trace.jsonl
expect_exit 1 'trace.jsonl' $babel --trace tdir
grep -q 'trace written' out.txt && fail "unwritten trace reported as written"

echo USAGE ERRORS OK
