#!/bin/sh
# Gate: a rebench.manifest/2 manifest (each runs/foms entry omits the keys
# equal to the entry before's) reads back whole.  A probed, fault-injected
# 18-run babelstream suite puts faceted runs beside ocl runs that failed
# to concretize (no facets, spec or build steps).  Its stored manifest is
# a /2 object, `replay --store` reproduces its perflog byte-exact, and
# `audit --manifest` finds every perflog row vouched for by the run the
# manifest records (no stale-artifact finding).
#
#   sh manifest_v2_replay.sh path/to/rebench
set -u
rebench=$1
work=$(mktemp -d) || exit 1
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 1

fail() {
  echo "FAIL: $*"
  exit 1
}

"$rebench" suite --system archer2 --tag babelstream --repeats 2 --probe sim \
  --faults 'seed=3,crash=0.2' --retries 1 --store S --perflog P > suite.txt
grep -q '^[0-9]*/18 passed$' suite.txt || fail "suite: $(tail -3 suite.txt)"
manifest=S/objects/$(cat S/refs/manifests/latest) ||
  fail "suite set no manifests/latest ref"
case $(head -c 30 "$manifest") in
  '{"schema":"rebench.manifest/2"') ;;
  *) fail "the manifest begins '$(head -c 40 "$manifest")'" ;;
esac
grep -q '"facets":{}' "$manifest" ||
  fail "no run after a faceted one wrote its empty facets"
"$rebench" replay --store S > replay.txt ||
  fail "replay exited $?: $(cat replay.txt)"
grep -q '1/1 artifact(s) byte-exact' replay.txt ||
  fail "replay: $(cat replay.txt)"
"$rebench" audit --perflog P --manifest "$manifest" > audit.txt 2>&1
grep -q 'hygiene audit' audit.txt || fail "audit: $(cat audit.txt)"
grep -q 'stale-artifact' audit.txt && fail "audit: $(grep stale audit.txt)"

echo MANIFEST V2 REPLAY OK
