#!/bin/sh
# Checks that the working tree simulates every fusionsim cell byte-for-byte
# as PARENT does:
#
#   scripts/cells_diff.sh PARENT [OUTDIR]
#   scripts/cells_diff.sh HEAD~1
#
# PARENT is any git revision; the change is the working tree, uncommitted
# edits included. fusionsim is built from a shared clone of PARENT under
# $TMPDIR (removed on exit) and from this checkout. Both binaries run the
# same cells, each with -stats -phases -energy:
#   - every paper benchmark on every system under the default
#     configuration, -large, -writethrough and -faultseed 7 (168 cells);
#   - the failure paths on fft, adpcm and hist on every system: -watchdog 3,
#     -maxcycles 3000, -paranoid, and -watchdog 200 -faultseed 3 (72 cells);
#   - the seeded random programs 1-8 (workloads.Random, saved once with
#     PARENT's `tracegen -random N -save` and run with -benchfile) on every
#     system under the default configuration and -faultseed 7 (96 cells):
#     they reach sharing patterns the seven paper programs rarely produce.
# Each cell's stdout, stderr and exit status land in OUTDIR/parent/CELL and
# OUTDIR/change/CELL (OUTDIR defaults to a new directory under $TMPDIR and
# is kept). The script ends with `diff -r` of the two trees and exits
# nonzero on any difference. Nothing is written inside the checkout.
set -eu
if [ $# -lt 1 ] || [ $# -gt 2 ]; then
	echo "usage: $0 PARENT [OUTDIR]" >&2
	exit 2
fi
repo=$(git rev-parse --show-toplevel)
rev=$(git -C "$repo" rev-parse --verify "$1^{commit}")
tmp=$(mktemp -d "${TMPDIR:-/tmp}/cells_diff.XXXXXX")
trap 'rm -rf "$tmp"' EXIT INT TERM
out=${2:-$(mktemp -d "${TMPDIR:-/tmp}/cells_diff_out.XXXXXX")}
mkdir -p "$out/parent" "$out/change"
out=$(cd "$out" && pwd)

git clone -q --shared --no-checkout "$repo" "$tmp/parent"
git -C "$tmp/parent" checkout -q --detach "$rev"
(cd "$tmp/parent" && go build -o "$tmp/fusionsim-parent" ./cmd/fusionsim &&
	go build -o "$tmp/tracegen" ./cmd/tracegen)
(cd "$repo" && go build -o "$tmp/fusionsim-change" ./cmd/fusionsim)
seeds="1 2 3 4 5 6 7 8"
for r in $seeds; do
	"$tmp/tracegen" -random "$r" -save "$tmp/random-$r.json" >/dev/null
done

benches="fft disp track adpcm susan filt hist"
systems="scratch shared fusion fusion-dx adaptive hydra"

# cell NAME ARGS...: one run of both binaries, named NAME in the trees.
cell() {
	name=$1
	shift
	for side in parent change; do
		status=0
		"$tmp/fusionsim-$side" "$@" -stats -phases -energy \
			>"$out/$side/$name" 2>&1 || status=$?
		echo "exit $status" >>"$out/$side/$name"
	done
}

n=0
for b in $benches; do
	for s in $systems; do
		cell "$b.$s.default" -bench "$b" -system "$s"
		cell "$b.$s.large" -bench "$b" -system "$s" -large
		cell "$b.$s.writethrough" -bench "$b" -system "$s" -writethrough
		cell "$b.$s.faultseed7" -bench "$b" -system "$s" -faultseed 7
		n=$((n + 4))
	done
done
for b in fft adpcm hist; do
	for s in $systems; do
		cell "$b.$s.watchdog3" -bench "$b" -system "$s" -watchdog 3
		cell "$b.$s.maxcycles3000" -bench "$b" -system "$s" -maxcycles 3000
		cell "$b.$s.paranoid" -bench "$b" -system "$s" -paranoid
		cell "$b.$s.watchdog200-faultseed3" -bench "$b" -system "$s" -watchdog 200 -faultseed 3
		n=$((n + 4))
	done
done
for r in $seeds; do
	for s in $systems; do
		cell "random$r.$s.default" -benchfile "$tmp/random-$r.json" -system "$s"
		cell "random$r.$s.faultseed7" -benchfile "$tmp/random-$r.json" -system "$s" -faultseed 7
		n=$((n + 2))
	done
done

echo "cells: $n; outputs: $out/parent $out/change (parent $rev)" >&2
if diff -r "$out/parent" "$out/change"; then
	echo "no difference in $n cells" >&2
else
	echo "cells differ" >&2
	exit 1
fi
