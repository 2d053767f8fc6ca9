#!/bin/sh
# Runs fusionperf in alternating parent/change pairs and compares them:
#
#   scripts/bench_pairs.sh PARENT WORKLOAD SEED PAIRS [OUTDIR]
#   scripts/bench_pairs.sh HEAD~1 fusion-cells 1 10
#
# PARENT is any git revision; the change is the working tree, uncommitted
# edits included. Each side is built through bench/run.sh with its own
# CARGO_TARGET_DIR: the parent from a clean clone of PARENT under $TMPDIR
# (removed on exit), the change from this checkout. Pair NN runs both sides
# once, parent first in odd pairs and change first in even ones, for
# BENCHMARK.json's run_seconds each, and appends each run as set pair-NN to
# OUTDIR/parent.json and OUTDIR/change.json (OUTDIR defaults to a new
# directory under $TMPDIR and is kept). The script ends with
# `fusionperf -compare -benchmark BENCHMARK.json parent.json change.json`.
# Nothing is written inside the checkout.
set -eu
if [ $# -lt 4 ] || [ $# -gt 5 ]; then
	echo "usage: $0 PARENT WORKLOAD SEED PAIRS [OUTDIR]" >&2
	exit 2
fi
parent=$1 workload=$2 seed=$3 pairs=$4
repo=$(git rev-parse --show-toplevel)
rev=$(git -C "$repo" rev-parse --verify "$parent^{commit}")
seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' "$repo/BENCHMARK.json")
tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT INT TERM
out=${5:-$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs_out.XXXXXX")}
mkdir -p "$out"
out=$(cd "$out" && pwd)

git clone -q --shared --no-checkout "$repo" "$tmp/parent"
git -C "$tmp/parent" checkout -q --detach "$rev"

# side NAME DIR PAIR: one run of DIR's fusionperf, appended as set PAIR.
side() {
	echo "== $3 $1 ($workload, seed $seed)" >&2
	(cd "$2" && CARGO_TARGET_DIR="$tmp/build-$1" sh bench/run.sh --workload "$workload" \
		--seed "$seed" --seconds "$seconds" --trace 0 --out "$out/$1.json" --set "$3")
}

i=1
while [ "$i" -le "$pairs" ]; do
	pair=$(printf 'pair-%02d' "$i")
	if [ $((i % 2)) -eq 1 ]; then
		side parent "$tmp/parent" "$pair"
		side change "$repo" "$pair"
	else
		side change "$repo" "$pair"
		side parent "$tmp/parent" "$pair"
	fi
	i=$((i + 1))
done

echo "results: $out/parent.json $out/change.json (parent $rev)" >&2
"$tmp/build-change/fusionperf" -compare -benchmark "$repo/BENCHMARK.json" \
	"$out/parent.json" "$out/change.json"
