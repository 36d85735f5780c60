GO ?= go

# Total statement coverage (make cover) must not drop below this.
COVER_FLOOR ?= 75

.PHONY: ci check fmt vet lint build cross test race chaos cover bench-strict bench-smoke fuzz-smoke loc

.DEFAULT_GOAL := ci

# The CI gate — what `make` with no arguments runs: formatting and
# static checks (including the project-specific swarmlint analyzers),
# the full test suite, a race pass over every package, the coverage
# floor, and a small benchmark smoke run.
ci: fmt vet lint build cross test race cover bench-smoke

# Historical alias for the same gate.
check: ci

# Every Go file in the tree must be gofmt-clean; lists the files that
# are not. Read-only: it never rewrites a file.
fmt:
	@test -z "$$(gofmt -l . | tee /dev/stderr)"

vet:
	$(GO) vet ./...

# Project-specific static analysis (DESIGN.md §7): buffer-pool
# ownership (bufpool) and no I/O under a held mutex (lockio), both
# path-sensitive on one flow walker;
# guarded-by fields, error classification, placement indexing,
# wire.Status switch exhaustiveness (statuscase), mixed atomic/plain
# field access (atomicmix), and goroutine lifecycle (goroleak). The
# ./... pattern covers the whole module — cmd/... and examples/...
# included — so the driver and example programs are held to the same
# invariants as the library.
lint:
	$(GO) run ./cmd/swarmlint ./...

build:
	$(GO) build ./...

# Vet and build for arm64, where no assembly kernel exists, so the
# portable fallbacks (e.g. the erasure coder's scalar loop) keep
# compiling.
cross:
	GOARCH=arm64 $(GO) vet ./... && GOARCH=arm64 $(GO) build ./...

test:
	$(GO) test ./...

# Race pass over the whole tree, including the cluster-level
# chaos/fault-injection tests in the root package.
race:
	$(GO) test -race ./...

# The chaos harness alone, under the race detector, plus the race of
# GrantAccess against joining servers (the ACL IDs live in the log
# alone and a grant reads them under its lock), the fragment engine's
# membership and discovery tests (its queues outlive a departed server,
# it reads the broadcast set from the placement map, and a Locate that
# joined a stale broadcast runs its own), the transport's
# retry, breaker and failure-injection tests, the log's short-stripe
# loss, crash and power-cut tests, its range-decode equivalence tests
# (degraded reads against the whole-fragment path, under concurrent
# readers, a second failure and the cleaner), its frame-lifetime tests
# (pooled fragment buffers held, read and released exactly once across
# un-acked stores, degraded writes, rebuild, a drain's migration and
# reclaim), its
# reconstruction, rebuild and corruption tests (rebuilt members keep
# the headers they were stored with, a corrupt survivor never reaches a
# whole reconstruction), its stripe-record and reclaim tests (reclaiming
# every stripe of a degraded log leaves no per-stripe state, a failed
# reclaim keeps its stripe's record for the retry, the fragment cache
# drops a fragment from its FIFO too), and the store's allocator churn, power-cut and
# crash tests plus its one read path: the read-after-free guards under
# each cache shape (capacity 0, one that holds the fragment, one that
# holds exactly one extent, so each fill evicts an extent other readers
# are copying from, one smaller than it), the oversized-extent rule,
# and the extent cache's fill, hit, admission and eviction tests. The store's group-commit tests
# (shared fsyncs, barrier ordering, sync errors, concurrent and
# same-FID stores, a delete behind an in-flight store) run here too:
# data barriers, entry commits and ACL writes share one sync
# coalescer, and these are the only tests that race its batches.
chaos:
	$(GO) test -race -v -run 'TestChaos|TestDegradedWrites|GrantAccess' .
	$(GO) test -race -run 'Membership|Straggler|Churn|Locate' ./internal/fragio
	$(GO) test -race -run 'Resilient|Flaky|Retry' ./internal/transport
	$(GO) test -race -run 'ShortStripe|RangeDecode|FrameLifetime|NoteMigrated|Reconstruct|Rebuild|Corrupt|Reclaim|StripeRecord|FragCache' ./internal/core
	$(GO) test -race -run 'AllocatorChurn|PowerCut|Crash|ReadAfterFree|ReadDeleteStoreRace|Oversized|ReadExtent|ReadCache|GroupCommit|SyncCoalescer|ConcurrentStores|DeleteWaits' ./internal/server

# Statement coverage across all packages, with a floor: fails if the
# total drops below COVER_FLOOR percent.
cover:
	$(GO) test -count=1 -coverprofile=coverage.out ./...
	@$(GO) tool cover -func=coverage.out | awk -v floor=$(COVER_FLOOR) \
		'/^total:/ { pct = $$3 + 0; printf "total coverage: %s (floor %d%%)\n", $$3, floor; \
		 if (pct < floor) { print "FAIL: coverage below floor"; exit 1 } }'

# Benchmark shape tests with the strict environment-sensitive
# throughput-ratio assertions enabled (needs an unloaded machine).
bench-strict:
	SWARM_BENCH_STRICT=1 $(GO) test ./internal/bench

# Tiny erasure-geometry (write amplification vs reconstruction cost,
# DESIGN.md §3.11), rebalance (foreground throughput during an elastic
# drain, in model time, DESIGN.md §3.12) and QoS (multi-tenant
# isolation, DESIGN.md §3.14) runs as CI smoke checks, plus the figure
# registry and its reporter. Shape only by default; set
# SWARM_BENCH_STRICT=1 to also assert the environment-sensitive QoS
# isolation bars.
bench-smoke:
	$(GO) test -count=1 -run 'TestErasure|TestRebalance|TestQoS|TestRegistry|TestReportRendering' ./internal/bench

# Short fuzzing pass over the wire codecs, the CRC-32 combination math,
# the erasure coder and Sting's metadata codecs (not part of ci: fuzzing
# is open-ended by nature; run it before touching frame, message, CRC,
# parity or Sting metadata code).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzFrameRoundTrip -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzReadRequestFrame -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzReadResponseFrame -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzResponseStreamDemux -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzCRCCombine -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzErasureRoundTrip -fuzztime 10s ./internal/erasure
	$(GO) test -run '^$$' -fuzz FuzzReconstructRange -fuzztime 10s ./internal/erasure
	$(GO) test -run '^$$' -fuzz FuzzDecodeInode -fuzztime 10s ./internal/sting
	$(GO) test -run '^$$' -fuzz FuzzDecodeMapBlock -fuzztime 10s ./internal/sting
	$(GO) test -run '^$$' -fuzz FuzzDecodeBucket -fuzztime 10s ./internal/sting
	$(GO) test -run '^$$' -fuzz FuzzRestoreCheckpoint -fuzztime 10s ./internal/sting
	$(GO) test -run '^$$' -fuzz FuzzDecodeHint -fuzztime 10s ./internal/sting

# Non-test Go lines (wc -l) per package directory and in total, leaving
# out _test.go files, testdata/ and perfbench/: the size a change to
# the program's code is measured by.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './perfbench/*' -exec wc -l {} + | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); sub(/^\.\//, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d  total\n", t }'
