#!/bin/sh
# Gate: an input file that exists but cannot be read (here a directory D
# where a file belongs, so its read fails with EISDIR) is an error: the
# command exits 1 and names D and the reason on stderr, instead of
# reading D as an empty file.
#
#   sh unreadable_inputs.sh path/to/rebench path/to/trace_lint
set -u
rebench=$1
trace_lint=$2
work=$(mktemp -d) || exit 1
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 1

fail() {
  echo "FAIL: $*"
  exit 1
}

mkdir D
"$rebench" run --benchmark babelstream --system noctua2 -S model=omp \
  --ntimes 10 --perflog P > /dev/null || fail "run --perflog P failed"
test -s P || fail "run --perflog P wrote no perflog"

# expect_unreadable TOOL ARGS...: `TOOL ARGS` exits 1 and its stderr names
# D and EISDIR's text.
expect_unreadable() {
  "$@" > out.txt 2> err.txt
  rc=$?
  test "$rc" -eq 1 || fail "$* exited $rc, expected 1"
  grep -q "'D'" err.txt || fail "$*: stderr does not name D: $(cat err.txt)"
  grep -q "Is a directory" err.txt ||
    fail "$*: stderr does not say why: $(cat err.txt)"
}

expect_unreadable "$rebench" audit --perflog D
expect_unreadable "$rebench" compare --before D --after P
expect_unreadable "$rebench" report --perflog D
expect_unreadable "$rebench" report --perflog D --frame-cache C
expect_unreadable "$rebench" history --perflog D
expect_unreadable "$rebench" history --perflog D --check
expect_unreadable "$rebench" trace-report D
expect_unreadable "$rebench" profile D
expect_unreadable "$rebench" replay D
expect_unreadable "$rebench" spec hpgmg%gcc --env-file D
expect_unreadable "$trace_lint" D

echo UNREADABLE INPUTS OK
