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
# OUTDIR/parent.json and OUTDIR/change.json and its final JSON line to
# OUTDIR/parent.lines and OUTDIR/change.lines (OUTDIR defaults to a new
# directory under $TMPDIR and is kept). The script ends with
# `fusionperf -compare -benchmark BENCHMARK.json parent.json change.json`
# and, for each end-to-end metric of BENCHMARK.json (all lower-is-better),
# the number of pairs the change won, lost and tied.
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

# side NAME DIR PAIR: one run of DIR's fusionperf, appended as set PAIR;
# its final JSON line is appended to NAME.lines.
side() {
	echo "== $3 $1 ($workload, seed $seed)" >&2
	(cd "$2" && CARGO_TARGET_DIR="$tmp/build-$1" sh bench/run.sh --workload "$workload" \
		--seed "$seed" --seconds "$seconds" --trace 0 --out "$out/$1.json" --set "$3") >"$tmp/line"
	cat "$tmp/line"
	tail -n 1 "$tmp/line" >>"$out/$1.lines"
}

: >"$out/parent.lines"
: >"$out/change.lines"

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

# Pairs won, lost and tied per end-to-end metric: line N of each .lines file
# is pair N's run, and a lower value wins.
metrics=$(sed -n '/"end_to_end"/,/"per_layer"/s/.*"name": *"\([^"]*\)".*/\1/p' \
	"$repo/BENCHMARK.json" | tr '\n' ' ')
awk -v metrics="$metrics" '
function val(line, m,   key, i, v) {
	key = "\"" m "\":{\"value\":"
	if (!(i = index(line, key))) return ""
	v = substr(line, i + length(key))
	sub(/[,}].*/, "", v)
	return v
}
FNR == NR { parent[FNR] = $0; next }
{ change[FNR] = $0; n = FNR }
END {
	printf "\n%-12s %4s %5s %5s  of %d pairs (change vs parent; lower wins)\n", "metric", "won", "lost", "tied", n
	k = split(metrics, ms, " ")
	for (j = 1; j <= k; j++) {
		won = lost = tied = 0
		for (i = 1; i <= n; i++) {
			a = val(parent[i], ms[j]); b = val(change[i], ms[j])
			if (a == "" || b == "") continue
			if (b + 0 < a + 0) won++
			else if (b + 0 > a + 0) lost++
			else tied++
		}
		printf "%-12s %4d %5d %5d\n", ms[j], won, lost, tied
	}
}' "$out/parent.lines" "$out/change.lines"
