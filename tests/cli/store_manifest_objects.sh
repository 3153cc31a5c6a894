#!/bin/sh
# Gate: campaign manifests are verified store objects.
#  1. After `run --store S`, `suite --store S` and `serve --store S` the
#     store holds only objects/<hash>, refs/** and *.lock files, and
#     refs/manifests/latest names the newest manifest.  The run's
#     perflog artifact is a rebench.perflog/2 object of its perflog's
#     line count.
#  2. An edited manifest object is refused by `replay FILE`, `replay
#     --store` and `trace_lint --store` (exit 1, naming the hash or the
#     record); the verified read deletes it, and the next `serve` pass
#     re-executes the submission to the same manifest bytes.  `trace_lint
#     --store` of a missing store exits 2 and creates nothing.
#  3. A store in the old layout (manifests/campaign-<h>.json files and a
#     latest.json copy) converts on open: it replays byte-exact, the
#     intact manifest's submission is answered from the run cache, and
#     the edited one stays in manifests.v1 while its submission
#     re-executes.
#
#   sh store_manifest_objects.sh path/to/rebench path/to/trace_lint
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

# The manifest hash a verdict file cites.
cited() {
  sed -n 's/.*"manifest":"\([0-9a-f]*\)".*/\1/p' "$1"
}

# Edits the first FOM mean of manifest $1 into $2, keeping its length.
edit_mean() {
  sed 's/"mean":[0-8]/"mean":9/' "$1" > "$2"
  cmp -s "$1" "$2" && fail "editing a mean of $1 changed nothing"
}

babel="--benchmark babelstream --system noctua2 -S model=omp --ntimes 10"

# 1. Layout.
"$rebench" run $babel --perflog p.log --store S > run.txt ||
  fail "run --store failed"
latest=$(cat S/refs/manifests/latest) || fail "run set no manifests/latest ref"
grep -q "^manifest written to S/objects/$latest\$" run.txt ||
  fail "run printed: $(grep manifest run.txt)"
perflog=$(sed -n 's/.*"name":"perflog","hash":"\([0-9a-f]*\)".*/\1/p' \
  "S/objects/$latest")
header=$(head -n 1 "S/objects/$perflog")
test "$header" = "rebench.perflog/2|$(wc -l < p.log | tr -d ' ')" ||
  fail "the perflog artifact begins '$header'"
"$rebench" suite --system noctua2 --tag std-ranges --store S > /dev/null ||
  fail "suite --store failed"
test "$(cat S/refs/manifests/latest)" != "$latest" ||
  fail "suite left refs/manifests/latest on the run's manifest"
"$rebench" submit --queue q $babel > /dev/null || fail "submit failed"
"$rebench" submit --queue q --benchmark babelstream --system archer2:compute \
  --repeats 2 > /dev/null || fail "submit failed"
"$rebench" serve --queue q --store S --once > /dev/null || fail "serve failed"
stray=$(find S -type f | grep -Ev '^S/objects/[0-9a-f]{16}$|^S/refs/.|\.lock$')
test -z "$stray" || fail "files outside objects/ and refs/: $stray"
test ! -e S/manifests || fail "a manifests/ directory was written"

# 2. An edited manifest object is refused, then re-executed.
verdict=q/verdicts/$(ls q/verdicts | head -1)
hash=$(cited "$verdict")
test -n "$hash" || fail "no manifest in $verdict"
cp "S/objects/$hash" original.json
edit_mean original.json edited.json
cp edited.json "S/objects/$hash"
"$rebench" replay "S/objects/$hash" > out.txt 2> err.txt
test $? -eq 1 || fail "replay of an edited manifest file did not exit 1"
grep -q "hashes to [0-9a-f]\{16\}, not to $hash" err.txt ||
  fail "replay FILE: $(cat err.txt)"
"$rebench" replay --store S "$hash" > out.txt 2> err.txt
test $? -eq 1 || fail "replay --store of an edited manifest did not exit 1"
grep -q "manifest $hash failed verification" err.txt ||
  fail "replay --store: $(cat err.txt)"
test ! -e "S/objects/$hash" || fail "the verified read kept a corrupt object"
cp edited.json "S/objects/$hash"
"$trace_lint" --store S > /dev/null 2> err.txt
test $? -eq 1 || fail "trace_lint --store passed a corrupt manifest"
grep -q "history record seq .*: manifest $hash failed verification" err.txt ||
  fail "trace_lint --store: $(cat err.txt)"
"$rebench" serve --queue q --store S --once > serve.txt ||
  fail "serve after the edit failed"
grep -q '1 cached, 1 executed' serve.txt || fail "re-pass: $(cat serve.txt)"
grep -q '"verdict":"ran:' "$verdict" || fail "re-pass verdict: $(cat "$verdict")"
cmp "S/objects/$hash" original.json ||
  fail "the re-executed manifest differs from the original"
"$trace_lint" --store S > /dev/null || fail "trace_lint --store after re-run"
"$trace_lint" --store nostore > /dev/null 2>&1
test $? -eq 2 || fail "trace_lint --store of a missing store did not exit 2"
test ! -e nostore || fail "trace_lint --store created a store"

# 3. An old-layout store converts on open.
"$rebench" submit --queue qo $babel > /dev/null || fail "submit failed"
"$rebench" submit --queue qo --benchmark babelstream --system archer2:compute \
  --repeats 2 > /dev/null || fail "submit failed"
"$rebench" serve --queue qo --store O --once > /dev/null || fail "serve failed"
newest=$(cat O/refs/manifests/latest)
other=$(for v in qo/verdicts/*; do cited "$v"; done | grep -v "$newest")
test -n "$other" || fail "the two submissions cite one manifest"
mkdir O/manifests
for h in "$newest" "$other"; do
  mv "O/objects/$h" "O/manifests/campaign-$h.json"
done
cp "O/manifests/campaign-$newest.json" O/manifests/latest.json
rm O/refs/manifests/latest
cp "O/manifests/campaign-$other.json" other.json
edit_mean other.json other-edited.json
cp other-edited.json "O/manifests/campaign-$other.json"
"$rebench" replay --store O > replay.txt || fail "replay --store O: $(cat replay.txt)"
grep -q "^replaying O/objects/$newest " replay.txt &&
  grep -q '1/1 artifact(s) byte-exact' replay.txt ||
  fail "replay of a converted store: $(cat replay.txt)"
test ! -e O/manifests || fail "conversion left manifests/"
cmp "O/objects/$newest" "O/manifests.v1/campaign-$newest.json" ||
  fail "the intact manifest was not imported"
test ! -e "O/objects/$other" || fail "the edited manifest was imported"
cmp other-edited.json "O/manifests.v1/campaign-$other.json" ||
  fail "the edited manifest left manifests.v1"
"$rebench" serve --queue qo --store O --once > serve.txt ||
  fail "serve over a converted store failed"
grep -q '1 cached, 1 executed' serve.txt ||
  fail "converted re-pass: $(cat serve.txt)"
cmp "O/objects/$other" other.json ||
  fail "the re-executed manifest differs from the original"

echo STORE MANIFEST OBJECTS OK
