# CI and humans run the same commands: the ci.yml jobs call exactly
# these targets' recipes.

GO ?= go

.PHONY: all build test race race-megafleet bench bench-smoke trace-artifact determinism-single-core fuzz perfbench-selftest service-smoke crash-gate lint ci

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
# scheduler's total-order gate, plus the checkpoint-resume
# byte-identity, study-digest and zero-perturbation gates, executed
# with a single scheduler thread. Together with the default-GOMAXPROCS
# test job this shows the traces do not depend on how many threads the
# Go runtime schedules. `go test -run` passes silently on zero matches:
# check with -v that every listed package still selects a test.
determinism-single-core:
	GOMAXPROCS=1 $(GO) test -run 'TraceDigest|MatchesEager|MatchesFullSolver|BitwiseEquivalence|TotalOrder|CheckpointResume|StudyDigests' ./internal/scenario ./internal/netsim ./internal/sim

# Fuzz the two parsers untrusted bytes reach and the naming service, 30 s
# each: the wire-spec decoder (decode → Resolve → re-marshal → decode
# must never panic and must round-trip exactly), the journal reader (a
# torn final line is dropped, a malformed line with records after it is
# refused) and DNS records (arbitrary names and values through Add,
# Resolve and RemoveName never panic, and only names inside a zone on a
# label boundary are answered).
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzSpecRequestResolve$$' -fuzztime 30s ./internal/cliconfig
	$(GO) test -run '^$$' -fuzz '^FuzzReadJournal$$' -fuzztime 30s ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzDNSRecords$$' -fuzztime 30s ./internal/dns

# The benchmark's self-test: each perfbench workload (fattree-100k,
# steady-1k, fork-10k) at its shrunk size, against the digest pins in
# perfbench/pins.json, the fork pins included. perfbench is its own Go
# module, so the root `go test ./...` does not reach it.
perfbench-selftest:
	cd perfbench && $(GO) test ./...

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

ci: build lint test race race-megafleet bench-smoke determinism-single-core fuzz perfbench-selftest service-smoke crash-gate
