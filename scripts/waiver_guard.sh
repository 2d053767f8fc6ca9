#!/bin/sh
# waiver_guard.sh — fail when lint-waiver debt grows silently.
#
# The committed .lint-waivers baseline records how many //lint: waivers the
# tree carries. This guard recounts with `fusionlint -waivers` and fails
# when the count grew, UNLESS the latest commit also touched ISSUE or docs
# (ISSUE*.md, DESIGN.md, README.md) — adding a waiver is fine exactly when
# its rationale ships alongside it. Shrinking debt updates the baseline
# expectation message but never fails.
#
# Refresh the baseline with: make waivers-baseline
set -eu

cd "$(dirname "$0")/.."

baseline_file=".lint-waivers"
if [ ! -f "$baseline_file" ]; then
    echo "waiver_guard: missing $baseline_file (run: make waivers-baseline)" >&2
    exit 1
fi
baseline=$(cat "$baseline_file")

# The audit prints one line per waiver on stdout (its total goes to
# stderr). A failed audit stops the guard instead of reading as 0 waivers.
audit=$(go run ./cmd/fusionlint -waivers ./...)
count=$(printf '%s\n' "$audit" | grep -c . || true)

echo "waiver_guard: $count waiver(s), baseline $baseline"

if [ "$count" -le "$baseline" ]; then
    if [ "$count" -lt "$baseline" ]; then
        echo "waiver_guard: debt shrank; refresh with: make waivers-baseline"
    fi
    exit 0
fi

# Debt grew: allowed only when the commit explains itself in ISSUE/docs.
touched=$(git log -1 --name-only --pretty=format: 2>/dev/null || true)
if echo "$touched" | grep -qE '(^|/)(ISSUE[^/]*\.md|DESIGN\.md|README\.md)$'; then
    echo "waiver_guard: waiver count grew ($baseline -> $count) but the commit touches ISSUE/docs; refresh the baseline (make waivers-baseline)"
    exit 0
fi

echo "waiver_guard: waiver count grew ($baseline -> $count) without touching ISSUE/docs." >&2
echo "waiver_guard: justify the new waiver in DESIGN.md/README.md/ISSUE and refresh: make waivers-baseline" >&2
exit 1
