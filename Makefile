# Test tiers for the muststaple reproduction.
#
#   tier1       — the seed gate: vet + gofmt + repolint (the determinism/
#                 concurrency analyzers in internal/lint), everything
#                 builds, and the unit/integration suite passes.
#   tier2       — static analysis (vet + repolint) plus the full suite
#                 under the race detector (the pipelined campaign engine
#                 is concurrent; this is the tier that guards it).
#   bench-guard — asserts the pipelined engine is not slower than the
#                 legacy round-barrier engine, the parallel world build is
#                 not slower than the serial reference (each reports a
#                 "speedup" metric; both redesigns target >= 1.5x on
#                 >= 4 cores), and the responder signed-response cache hot
#                 path beats per-scan signing by >= 3x ns/op and >= 5x
#                 allocs/op (no core gate; the win is eliminated work).
#   loadcheck   — tier-2 serving-tier smoke: boots the OCSP serving tier
#                 on a loopback socket and fires a short open-loop
#                 ocspload burst at it, failing on zero throughput, any
#                 5xx, or any transport error.
#   capacitycheck — tier-2 closed-loop capacity gate: ocspload -capacity
#                 probes the loopback tier (double then bisect the
#                 offered rate until the p99 SLO breaks) and fails when
#                 the discovered ceiling is below -min-capacity — 2× the
#                 PR 6 fixed-rate 2000 req/s baseline.
#   staplecheck — tier-2 telemetry-ingestion gate: staplereport
#                 -ingestcheck floods the Expect-Staple report collector
#                 in-process (decode + shard + aggregate + persist) and
#                 fails below 20k reports/s or above the heap bound,
#                 then an ocspload -stapleserve burst exercises the same
#                 path over a real loopback socket.
#   memcheck    — tier-2 streaming-construction guard: runs the same quick
#                 cmd/repro pipeline at -world-scale 1 and 10 and fails if
#                 the 10× world's heap high-water mark exceeds ~1.5× the 1×
#                 run's (scripts/memcheck.sh; see DESIGN.md §13).
#   bench-snapshot — runs the guard benchmarks plus the world-scale memory
#                 sweep (heap-peak-bytes at 1× and 10×), the OCSP/CRL
#                 codec, CRL Find, responder hot-path, scan-client cache,
#                 and observation-store micro-benchmarks, then an ocspload
#                 open-loop run against a real loopback serving tier
#                 (p50/p99/p999 over the socket) plus a closed-loop
#                 capacity search (max sustainable req/s under the p99
#                 SLO), and archives the results as BENCH_PR10.json (via
#                 cmd/benchjson).
#   bench-compare — diffs the previous archived snapshot against the
#                 current one (via cmd/benchjson -compare); warns and
#                 succeeds when either snapshot is missing, so fresh
#                 clones and CI runs without archives don't fail.
#   perfbench   — the same-host benchmark (perfbench/NOTES.md): runs
#                 perfbench/run.py once per BENCHMARK.json workload and
#                 prints each workload's result line. SEED and SECONDS set
#                 the input seed and measurement time. For a traced run
#                 (per-layer ledger) call perfbench/run.py with --trace 1.
#   fuzzcheck   — tier-2 hostile-input gate: runs every native fuzz target
#                 for FUZZTIME (default 30s) — the OCSP response and
#                 request parsers against their reflective encoding/asn1
#                 reference, the GET-path decoders against each other,
#                 the Expect-Staple report decoder, the store's record
#                 codec, and the store's frame scanner (strict against
#                 tolerant torn-tail policy) — and fails on the first
#                 finding.
#   racecheck   — focused race-detector pass over the concurrent hot-path
#                 packages (serving tier, load generator, responder,
#                 scanner, store, engine core, shared memo cache) under
#                 -short, so the data-race gate on the paths the lint
#                 contracts annotate runs in minutes, not the full-suite
#                 tier-2 budget.
#   crash-recovery — end-to-end durability check: runs a campaign, kills
#                 a second run mid-round via the store failpoint, resumes
#                 it, and asserts the resumed figures match
#                 (scripts/crash_recovery.sh).

GO ?= go

# The concurrent hot-path packages: every package that either serves the
# request path, drives load at it, or feeds it. racecheck and the
# //lint:allocfree contracts (DESIGN.md §15) cover the same surface.
RACE_PKGS = ./internal/ocspserver ./internal/loadgen ./internal/responder \
	./internal/scanner ./internal/store ./internal/core ./internal/expectstaple \
	./internal/memo

.PHONY: all tier1 tier2 fuzzcheck loadcheck capacitycheck staplecheck memcheck racecheck bench-guard bench bench-snapshot bench-compare perfbench crash-recovery vet fmt fmt-check lint

all: tier1

tier1: vet fmt-check lint
	$(GO) build ./...
	$(GO) test ./...

tier2: vet lint racecheck fuzzcheck loadcheck capacitycheck staplecheck memcheck
	$(GO) test -race ./...

# racecheck is the quick race gate: -short keeps each package's suite to
# its fast paths, so the whole pass stays well under the full -race run.
racecheck:
	$(GO) test -race -short $(RACE_PKGS)

# fuzzcheck runs each fuzz target (package:name) alone for FUZZTIME.
FUZZTIME ?= 30s
FUZZ_TARGETS = ./internal/ocsp:FuzzParseResponse ./internal/ocsp:FuzzParseRequest \
	./internal/ocsp:FuzzDecodeGETPath ./internal/expectstaple:FuzzReportDecode \
	./internal/store:FuzzRecordRoundTrip ./internal/store:FuzzScanFrames

fuzzcheck:
	@for t in $(FUZZ_TARGETS); do \
		echo "== $${t##*:} for $(FUZZTIME)"; \
		$(GO) test "$${t%%:*}" -run '^$$' -fuzz "^$${t##*:}\$$" -fuzztime $(FUZZTIME) || exit 1; \
	done

# loadcheck boots a self-contained serving tier (own CA, loopback
# listener) and drives a 2s open-loop burst; -check fails the run on
# zero completed requests, any HTTP 5xx, or any transport error.
loadcheck:
	$(GO) run ./cmd/ocspload -selfserve -rate 500 -duration 2s -check

# capacitycheck closes the loop: search for the highest rate the
# loopback tier sustains at p99 <= 25ms and fail below 4000 req/s (2x
# the PR 6 fixed-rate baseline). Short probes keep the gate under ~30s.
capacitycheck:
	$(GO) run ./cmd/ocspload -selfserve -capacity -slo 25ms -probe-duration 2s \
		-start-rate 1000 -max-rate 65536 -check -min-capacity 4000

# staplecheck gates the violation-report ingestion tier: the in-process
# flood must sustain >= 20k reports/s inside a bounded heap, and the
# socket path must absorb a short open-loop burst with no errors.
staplecheck:
	$(GO) run ./cmd/staplereport -ingestcheck -reports 200000 -workers 8 \
		-min-rate 20000 -max-heap-mb 128
	$(GO) run ./cmd/ocspload -stapleserve -rate 2000 -duration 2s -check

# memcheck asserts the fixed-memory property of streaming world
# construction: a 10× world must not grow the heap high-water mark past
# MAX_RATIO (default 1.5) times the 1× run's.
memcheck:
	./scripts/memcheck.sh

vet:
	$(GO) vet ./...

# fmt fails when any file needs formatting, listing the offenders; run
# `gofmt -w .` to fix.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "$$out"; \
		echo "gofmt: the files above need formatting (run: gofmt -w .)"; \
		exit 1; \
	fi

fmt-check: fmt

# lint runs the repo's determinism/concurrency analyzers (internal/lint,
# cmd/repolint). See DESIGN.md §10 and §15. Add -json for machine-readable
# findings or -timing for per-analyzer wall time.
lint:
	$(GO) run ./cmd/repolint ./...

bench-guard:
	$(GO) test -run - -bench 'BenchmarkCampaignEngineGuard|BenchmarkWorldBuildGuard|BenchmarkResponderRespondGuard' -benchtime 1x .

bench:
	$(GO) test -run - -bench . -benchtime 1x .

bench-snapshot:
	{ $(GO) test -run - -bench 'BenchmarkCampaignEngineGuard|BenchmarkWorldBuildGuard|BenchmarkResponderRespondGuard' -benchtime 1x . ; \
	  $(GO) test -run - -bench '^BenchmarkWorldScaleSweep$$' -benchtime 1x . ; \
	  $(GO) test -run - -bench '^(BenchmarkOCSPCreateResponse|BenchmarkOCSPParseResponse|BenchmarkCRLCreateAndParse|BenchmarkResponderRespond)$$' . ; \
	  $(GO) test -run - -bench '^(BenchmarkStoreAppend|BenchmarkStoreScan)$$' -benchtime 100x . ; \
	  $(GO) test -run - -bench '^BenchmarkServeGETHot$$' . ; \
	  $(GO) test -run - -bench '^BenchmarkCRLFindMiss$$' ./internal/crl ; \
	  $(GO) test -run - -bench BenchmarkClientCaches ./internal/scanner ; \
	  $(GO) run ./cmd/ocspload -selfserve -rate 2000 -duration 5s -bench ServingTierLoad ; \
	  $(GO) run ./cmd/ocspload -selfserve -capacity -slo 25ms -probe-duration 2s \
		-start-rate 1000 -max-rate 65536 -bench ServingTierCapacity ; \
	  $(GO) run ./cmd/staplereport -ingestcheck -reports 200000 -workers 8 \
		-min-rate 0 -max-heap-mb 0 -bench StapleIngest ; } | $(GO) run ./cmd/benchjson > BENCH_PR10.json

BENCH_BASE ?= BENCH_PR8.json
BENCH_HEAD ?= BENCH_PR10.json

bench-compare:
	@if [ ! -f "$(BENCH_BASE)" ] || [ ! -f "$(BENCH_HEAD)" ]; then \
		echo "bench-compare: snapshot missing ($(BENCH_BASE) and/or $(BENCH_HEAD)); run 'make bench-snapshot' to create one — skipping comparison"; \
	else \
		$(GO) run ./cmd/benchjson -compare $(BENCH_BASE) $(BENCH_HEAD); \
	fi

# perfbench runs the same-host benchmark over every workload BENCHMARK.json
# declares. Compare two trees only by running this on both, on one host.
SEED ?= 1
SECONDS ?= 25

perfbench:
	@for w in $$(python3 -c "import json; print(' '.join(w['name'] for w in json.load(open('BENCHMARK.json'))['workloads']))"); do \
		echo "== $$w"; \
		python3 perfbench/run.py --workload $$w --seed $(SEED) --seconds $(SECONDS) --trace 0 || exit 1; \
	done

crash-recovery:
	./scripts/crash_recovery.sh
