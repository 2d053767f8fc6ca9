GO ?= go

.PHONY: tier1 build vet lint test race bench bench-smoke bench-test allocbudget soak-smoke soak fuzz-smoke daemon-smoke cover cover-baseline litmus waivers waivers-baseline clean

# tier1 is the gate every change must pass.
tier1: vet lint build race allocbudget

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint: fusionlint, the in-tree determinism & protocol-discipline analyzers
# (see cmd/fusionlint). Exits nonzero on any finding.
lint:
	$(GO) run ./cmd/fusionlint ./...

# -shuffle=on randomizes test (and subtest) execution order so hidden
# inter-test state dependence fails loudly instead of by luck of ordering.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

# bench: time every artifact's regeneration (plus the full set) and write
# the per-artifact wall-clock/alloc report to BENCH_<date>.json. J bounds
# the sweep's worker pool (empty: GOMAXPROCS); worker count never changes
# artifact bytes, only wall-clock.
J ?= 0
bench:
	$(GO) run ./cmd/fusionbench -j $(J) -benchout BENCH_$$(date +%F).json

# bench-smoke: one iteration of each Go benchmark — compile/run smoke, not
# a measurement — plus the allocation-budget gate.
bench-smoke: allocbudget
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# bench-test: vet and test the fusionperf benchmark module (bench/, its own
# Go module, so the root ./... patterns never reach it). Its smoke test runs
# every workload, checking outputs against the committed bench/golden files.
bench-test:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# allocbudget: regenerate the budgeted artifacts and fail if any one's
# allocs/op or bytes/op exceeds BENCH_BUDGET.json by more than its
# tolerance. After an intentional allocation change, refresh the budget
# from a fresh `make bench` report.
allocbudget:
	$(GO) run ./cmd/fusionbench -j 1 -allocbudget BENCH_BUDGET.json

# soak-smoke: the short-mode fault-injection sweep (a subset of cells).
soak-smoke:
	$(GO) test -short -run 'TestSoak|TestFaulted|TestWatchdog' ./internal/systems/

# soak: the full randomized fault-injection sweep across every registered
# system (ADAPTIVE and HYDRA included).
soak:
	$(GO) test -run 'TestSoak|TestFaulted|TestWatchdog' -timeout 30m ./internal/systems/

# daemon-smoke: end-to-end fusiond check — start the daemon, require the
# committed golden response bytes (cold and cache-served), SIGTERM, and
# require a clean exit with a persisted cache. REGEN=1 refreshes the
# golden after a deliberate result change.
daemon-smoke:
	./scripts/daemon_smoke.sh

# fuzz-smoke: run each native fuzzer briefly. The committed seed corpora
# (testdata/fuzz/) replay on every plain `go test`; this target additionally
# explores new seeds for ~10s per fuzzer.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzRandomWorkloadGolden -fuzztime $(FUZZTIME) ./internal/systems/
	$(GO) test -run '^$$' -fuzz FuzzLitmusRandom -fuzztime $(FUZZTIME) ./internal/litmus/

# cover: per-package statement coverage gated against COVERAGE_BASELINE
# (fail on a >2-point regression in any package; see cmd/covergate).
cover:
	$(GO) test -count=1 -coverprofile=cover.out ./...
	$(GO) run ./cmd/covergate -profile cover.out -baseline COVERAGE_BASELINE

# cover-baseline: refresh the checked-in baseline after a deliberate
# coverage change (new package, added/removed tests).
cover-baseline:
	$(GO) test -count=1 -coverprofile=cover.out ./...
	$(GO) run ./cmd/covergate -profile cover.out -baseline COVERAGE_BASELINE -write

# litmus: the directed coherence litmus suite via the CLI (the same cases
# run as tests in internal/litmus; this prints the per-run table).
litmus:
	$(GO) run ./cmd/fusionsim -litmus all

# waivers: inventory every //lint: suppression in the tree with its reason
# (the lint-debt ledger). CI compares the count against .lint-waivers and
# fails when debt grows without the commit touching ISSUE/docs.
waivers:
	$(GO) run ./cmd/fusionlint -waivers ./...

# waivers-baseline: refresh the committed waiver-count baseline after a
# deliberate, documented waiver change.
waivers-baseline:
	$(GO) run ./cmd/fusionlint -waivers -format json ./... | grep -c '"file"' > .lint-waivers
	@echo "baseline: $$(cat .lint-waivers) waiver(s)"

clean:
	$(GO) clean ./...
