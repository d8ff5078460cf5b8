# CI and humans run the same commands: the ci.yml jobs call exactly
# these targets' recipes.

GO ?= go

.PHONY: all build test race race-megafleet bench bench-smoke trace-artifact determinism-single-core fuzz perfbench-selftest examples service-smoke crash-gate lint ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The 1000-node scale gate under the race detector: the scenario engine,
# incremental solver and route cache run full-size with -race on.
race-megafleet:
	$(GO) test -race -run='^$$' -bench='^BenchmarkScenarioMegafleet1000$$' -benchtime=1x .

# Full benchmark pass with memory stats — the reproduction gate plus the
# BenchmarkScenario* perf trajectory.
bench:
	$(GO) test -run='^$$' -bench=. -benchmem ./...

# One iteration of everything; what CI runs on every push. Includes the
# megafleet-1000000 run-phase scale gate (a million nodes under a
# wall-time budget) plus the 100k and 10k gates it builds on.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -benchmem ./...

# Every digest pin and every equivalence gate against a reference mode
# (lazy vs eager accounting, incremental vs full solver), the
# scheduler's total-order gate, the checkpoint-resume byte-identity,
# study-digest and zero-perturbation gates, the kernel-state rendering
# differentials (each layer's strconv rendering against its fmt
# oracle), the wiring differential (a network wired from a topology
# builder's wiring against the name-keyed model of its nodes and
# cables), the builders' pinned wiring digests, the route cache against
# its name-keyed oracle (hits, misses, evictions, size, LRU order and
# paths after every step), a link's flow set in flow-ID order (OnEnd
# callbacks and BitsCarried after a re-path and a link failure), the
# journal replay of a committed data directory (an image recipe and a
# session journal recovered and verified against their stamps) and the
# twin-cloud differential of untouched hosts (every catalog scenario
# but the 10⁶-node one on a cloud used as built and on a twin whose
# every host was booted first: traces, kernel state, pimaster's node,
# VM, DNS and lease documents, metrics and each side's forks agree),
# executed with a single scheduler thread. Together with the default-GOMAXPROCS test job this shows the
# traces do not depend on how many threads the Go runtime schedules.
# `go test -run` passes silently on zero matches, so the target first
# fails if a listed package selects no test.
DETERMINISM_TESTS = TraceDigest|MatchesEager|MatchesFullSolver|IncrementalVsGlobalSolver|BitwiseEquivalence|TotalOrder|CheckpointResume|StudyDigests|StateRenderMatchesFmt|WiredNetworkMatchesModel|FabricWiringPinned|RouteCacheMatchesNameKeyedOracle|LinkFlowSetOrder|RecoverCommittedDataDir|LazyHostsMatchTouchedTwin
DETERMINISM_PKGS = ./internal/scenario ./internal/netsim ./internal/sim ./internal/sdn ./internal/energy ./internal/topology ./internal/session

determinism-single-core:
	@for p in $(DETERMINISM_PKGS); do \
		$(GO) test -list '$(DETERMINISM_TESTS)' $$p | grep -q '^Test' || \
			{ echo "determinism-single-core: $$p selects no test"; exit 1; }; \
	done
	GOMAXPROCS=1 $(GO) test -run '$(DETERMINISM_TESTS)' $(DETERMINISM_PKGS)

# Fuzz the three parsers untrusted bytes reach, the image recipes, the
# naming service, the OpenFlow table, the metrics encoder, the fabric
# builders and the flow paths, 30 s each: the wire-spec
# decoder (decode → Resolve → re-marshal → decode must never panic and
# must round-trip exactly), the inject body (a FaultRequest decodes to a
# fault that its journal encoding decodes back to unchanged), the
# journal reader (a torn final line is dropped, a malformed line with
# records after it is refused), the persisted image records (arbitrary
# bytes decoded into a store.ImageRecord never panic; every injection
# that decodes survives its journal encoding unchanged, and the record
# re-marshalled keeps its rebuild key; nothing is rebuilt), DNS records (arbitrary names and values
# through Add, Resolve and RemoveName never panic, and only names inside
# a zone on a label boundary are answered), the naming tables (DNS and
# DHCP answering a fleet's plan rows agree, step by step, with the same
# rows filed one at a time), the flow table (arbitrary installs,
# lookups, removals, cookie flushes and timeouts never panic, and the
# index-keyed table agrees with its name-keyed oracle on every verdict,
# next hop, hit count, table order and counter) and the Prometheus
# exposition (an arbitrary metric name, label and help text never panic,
# every line is a HELP, TYPE or sample line of the text format, and the
# label value and help text un-escape to what was registered) and the
# fabric wiring (any fabric kind and small dimensions, zero and negative
# included, are either refused by the topology builder or wired into
# networks that match the name-keyed model of its nodes and cables and
# pass topology.Validate) and the flow paths (arbitrary hop-index
# sequences, negative, out of range, repeated or not cabled, through
# StartFlow and SetPath on a small fabric with a failed link never
# panic, are refused exactly when the name-resolving reference refuses
# them, with the same error class, and otherwise route over the same
# links, every link's flow set staying in flow-ID order). A
# naming-table input replays up to 1 KiB of operations on two stacks (a
# few ms), so minimising each new input for the default 60 s would spend
# the whole 30 s: it minimises for 10 executions instead.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzSpecRequestResolve$$' -fuzztime 30s ./internal/cliconfig
	$(GO) test -run '^$$' -fuzz '^FuzzFaultRequest$$' -fuzztime 30s ./internal/session
	$(GO) test -run '^$$' -fuzz '^FuzzReadJournal$$' -fuzztime 30s ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzImageRecipe$$' -fuzztime 30s ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzDNSRecords$$' -fuzztime 30s ./internal/dns
	$(GO) test -run '^$$' -fuzz '^FuzzNamingTables$$' -fuzztime 30s -fuzzminimizetime 10x ./internal/fleet
	$(GO) test -run '^$$' -fuzz '^FuzzSwitchTable$$' -fuzztime 30s ./internal/openflow
	$(GO) test -run '^$$' -fuzz '^FuzzPrometheusExposition$$' -fuzztime 30s ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzFabricWiring$$' -fuzztime 30s ./internal/netsim
	$(GO) test -run '^$$' -fuzz '^FuzzFlowPath$$' -fuzztime 30s ./internal/netsim

# The benchmark's self-test: each perfbench workload (fattree-100k,
# steady-1k, fork-10k) at its shrunk size, against the digest pins in
# perfbench/pins.json, the fork pins included. perfbench is its own Go
# module, so the root `go test ./...` does not reach it.
perfbench-selftest:
	cd perfbench && $(GO) test ./...

# Run every program under examples/ once (`go build ./...` only compiles
# them), then `pibench -exp all`, and compare each one's output byte for
# byte with its golden file: examples/<name>/output.golden and
# cmd/pibench/testdata/all.golden. The outputs are the simulation's
# printed results, so a byte that moves is a behaviour change. The
# golden bytes carry amd64 float rounding, so on other architectures
# the programs only run, as the digest pins skip there. The target fails
# on the first program that exits non-zero or differs. A change that
# moves an output on purpose rewrites its golden file with the same
# command, stdout only (`go run ./examples/<name> >
# examples/<name>/output.golden`).
EXAMPLES = $(patsubst examples/%/main.go,%,$(wildcard examples/*/main.go))

examples:
	@arch="$$($(GO) env GOARCH)"; out="$$(mktemp)"; trap 'rm -f "$$out"' EXIT; \
	check() { \
		cat "$$out"; \
		[ "$$arch" != amd64 ] || diff -u "$$1" "$$out" || \
			{ echo "examples: output differs from $$1"; exit 1; }; \
	}; \
	for e in $(EXAMPLES); do \
		echo "== examples/$$e"; \
		$(GO) run ./examples/$$e > "$$out" || { echo "examples: $$e failed"; exit 1; }; \
		check examples/$$e/output.golden; \
	done; \
	echo "== pibench -exp all"; \
	$(GO) run ./cmd/pibench -exp all > "$$out" || { echo "examples: pibench failed"; exit 1; }; \
	check cmd/pibench/testdata/all.golden

# A Perfetto-loadable span trace of the 1000-node scale scenario:
# advance slices, per-domain netsim flushes and checkpoint spans with
# dual virtual/wall stamps. CI uploads run.trace.json as an artifact.
trace-artifact:
	$(GO) run ./cmd/piscale -scenario megafleet-1000 -q -trace-out run.trace.json

# The session-service HTTP gate: piscaled boots its API on a loopback
# listener and drives create image → fork session → advance → inject →
# checkpoint → fork → run both arms out over real HTTP; the forks'
# trace digests must be bit-identical to each other and to the same
# history on a bare in-process run, inside the wall budget. The gate
# also scrapes /v1/metrics mid-advance and requires the core series
# set present and monotone.
service-smoke:
	$(GO) run ./cmd/piscaled -smoke -smoke-budget 120s

# The crash-recovery gate, under the race detector: piscaled re-execs
# itself as a child daemon over a data directory, SIGKILLs it while two
# journaled sessions are mid-advance, restarts it and requires every
# session recovered by verified replay to its last durable offset —
# then finishes the runs and compares their trace digests bit-for-bit
# against uninterrupted control arms, plus a SIGTERM drain/recover
# round. The data directory (quarantined journals included) survives
# in crash-data/ on failure.
crash-gate:
	rm -rf crash-data
	$(GO) run -race ./cmd/piscaled -crash-gate -crash-budget 8m -crash-dir crash-data

lint:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi

ci: build lint test race race-megafleet bench-smoke determinism-single-core fuzz perfbench-selftest examples service-smoke crash-gate
