# Build / test entry points. `make ci` is what every PR must pass: vet
# and the repo's own static-analysis suite (revtr-lint: determinism,
# context, metrics, lock, and concurrency contracts), plus the full
# suite under the race detector (the service and campaign layers are
# concurrent; -race is load-bearing, not optional), plus the chaos
# suite under deterministic fault injection and a smoke pass over the
# fuzz targets.

GO ?= go

.PHONY: build test short vet lint race ci bench chaos fuzz soak cover

build:
	$(GO) build ./...

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

# vet also fails when gofmt would rewrite any Go file (.bench_build is
# the benchmark's build cache, not source).
vet:
	$(GO) vet ./...
	@unformatted=$$(find . -path ./.bench_build -prune -o -name '*.go' -print | xargs gofmt -l); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; fi

# lint runs the repo's go/analysis-style suite (cmd/revtr-lint). Per
# package: detpath (wall clock / global rand / unsorted map ranges),
# ctxflow (context threading), obsnames (metric naming), locksafe
# (mutex hygiene). Module-wide, over the flow layer's CFG + call graph:
# lockorder (lock-order cycles), suspendsafe (locks/tickets held across
# suspension points), spawnbound (goroutine lifetime bounds). Any
# finding is a CI failure; see DESIGN.md "Determinism contract and
# static enforcement" and "Concurrency contract" for the rules and
# //revtr: escape hatches. `revtr-lint -json` / `-run <analyzers>`
# machine-reads and filters the same sweep.
lint:
	$(GO) run ./cmd/revtr-lint ./...

# -shuffle=on randomizes test order: the suites must not depend on
# package-level execution order (chaos plans and fabrics are built per
# test, so shuffling is free coverage).
race:
	$(GO) test -race -shuffle=on ./...

ci: vet lint race bench chaos fuzz soak cover

# cover enforces a coverage floor on the segment store: it is shared
# mutable state spliced into other measurements' results, so its
# eviction, expiry, and chain-walk edge cases must all stay exercised.
cover:
	$(GO) test -coverprofile=/tmp/segments.cover ./internal/core/segments/
	@$(GO) tool cover -func=/tmp/segments.cover | awk '/^total:/ { \
		pct = $$3 + 0; printf "internal/core/segments coverage: %s (floor 90%%)\n", $$3; \
		if (pct < 90) { print "coverage below floor"; exit 1 } }'

# chaos runs the fault-injection suites under -race: engine and campaign
# measured over lossy links, rate-limited routers, flapping routes, and
# blacked-out vantage points. The tests bake in 3 fault seeds x 2 loss
# levels each; -count=1 defeats caching so every CI run re-rolls.
chaos:
	$(GO) test -race -run Chaos -count=1 ./internal/core/ ./internal/campaign/

# soak pushes a 1000-job duplicate-heavy batch workload from three
# users through a live HTTP server and checks the scheduler's books:
# every job lands in exactly one terminal state, shed + coalesced +
# done + failed balances the submission total, the metrics agree with
# the per-job ledger, and nobody overdraws their daily quota.
# TestSoakStream reruns the workload with the full streaming surface
# attached — per-batch followers, firehose subscribers, one permanently
# stalled subscriber — and checks event/ledger conservation.
soak:
	$(GO) test -race -run 'TestSoak' -count=1 ./internal/service/

# fuzz gives each fuzz target a short budget: a smoke pass over the
# parser/codec fuzzers, not a soak (lengthen locally with FUZZTIME).
FUZZTIME ?= 10s
fuzz:
	$(GO) test -fuzz FuzzParsePlan -fuzztime $(FUZZTIME) ./internal/netsim/faults/
	$(GO) test -fuzz FuzzSpecCodec -fuzztime $(FUZZTIME) ./internal/measure/
	$(GO) test -fuzz FuzzSegmentStore -fuzztime $(FUZZTIME) ./internal/core/segments/

# bench in CI runs every benchmark once (-benchtime 1x): a smoke test
# that the benchmarks still compile and run, not a performance gate. It
# also regenerates BENCH_engine.json (the checked-in engine benchmark
# corpus — measurements/s at 1..10k in-flight, suspended-machine
# footprint) so the numbers track the code; commit the refreshed file
# when it moves materially.
bench:
	BENCH_ENGINE_JSON=$(CURDIR)/BENCH_engine.json $(GO) test -run TestWriteEngineBenchJSON -count=1 ./internal/core/
	BENCH_SEGMENTS_JSON=$(CURDIR)/BENCH_segments.json $(GO) test -run TestWriteSegmentsBenchJSON -count=1 ./internal/core/
	$(GO) test -bench . -benchtime 1x -benchmem ./...
