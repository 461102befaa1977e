# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-short race bench bench-json bench-compare obs-overhead fuzz fuzz-sweeps fuzz-traceparent vet fmt loc cover engine-smoke cluster-smoke jobs-smoke campaign-smoke otlp-smoke repro examples clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Re-record the committed performance baseline: the two core benchmarks
# and the campaign pipeline (unbatched vs batched-agg on L20_W12 × 10k
# seeds). The JSON header records GOMAXPROCS, so a baseline measured on a
# small machine is legible as such.
BENCH_BASELINE ?= BENCH_8.json
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkPulsePropagation$$|BenchmarkMultiPulseStabilization$$|BenchmarkCampaign$$' \
		-benchmem -count=6 . | $(GO) run ./cmd/benchjson -out $(BENCH_BASELINE)

# Compare the current baseline against the previous one: a per-benchmark
# delta table on ns/op, events/s, B/op, allocs/op. The fail gate applies
# only to the single-goroutine rows: the core benchmarks and, in the
# committed baselines, the one-worker row of the retired L1000_W500
# scaling matrix. Its multi-worker rows and the campaign rows depend on
# the recording machine's core count, so they inform but do not gate.
#
# The threshold is 15%, not 5%: the two baselines were recorded in
# different sessions on a shared 1-CPU VM, and an interleaved A/B of the
# two code revisions showed the *machine* drifts 6-12% between recording
# days while the code-level delta is ~5% worst case (see EXPERIMENTS.md).
# 15% still catches algorithmic regressions — the calendar bucket-width
# bug this PR fixed during development was a +30% hit on L20.
BENCH_OLD ?= BENCH_6.json
bench-compare:
	$(GO) run ./cmd/benchjson -compare -fail-above 15 \
		-gate-filter '^Benchmark(PulsePropagation|MultiPulseStabilization|[A-Za-z]+Scaling/L1000_W500/[a-z]+=1$$)' \
		$(BENCH_OLD) $(BENCH_BASELINE)

# Observability-overhead gate: with no tracer armed, the per-event nil
# check in the engine must be free. Runs the largest pulse benchmark
# (tracing disabled — the default) and fails if it regresses more than 3%
# against the committed baseline on ns/op or events/s. The OTLP exporter
# is compiled into the same binary but disabled (nil *Exporter, the
# -otlp-endpoint-unset configuration); the sim core touches neither the
# exporter nor the arm policy, so this gate is exactly the "exporter
# compiled in but disabled costs <3%" check.
obs-overhead:
	$(GO) test -run '^$$' -bench 'BenchmarkPulsePropagation$$/L100_W40$$' \
		-benchmem -count=6 . | $(GO) run ./cmd/benchjson -out obs_overhead.json
	$(GO) run ./cmd/benchjson -compare -fail-above 3 $(BENCH_BASELINE) obs_overhead.json

# Differential-fuzz the event queues (near ring + far lane vs 4-ary heap
# vs container/heap) and whole runs (ring vs heap, batched vs unbatched
# dispatch) beyond the committed seed corpora, fuzz the store's record
# codecs (the only on-disk frame) for bijection, then the W3C
# traceparent parser/formatter round trip.
fuzz: fuzz-traceparent
	$(GO) test -fuzz FuzzEventQueue -fuzztime 30s ./internal/sim
	$(GO) test -fuzz FuzzEngineDifferential -fuzztime 30s ./internal/core
	$(GO) test -fuzz FuzzStoreCodec -fuzztime 30s ./internal/store

# Fuzz the W3C traceparent codec the fleet stitches traces with:
# malformed headers must be rejected, accepted headers must round-trip
# through FormatTraceparent without losing ids.
fuzz-traceparent:
	$(GO) test -fuzz FuzzTraceparent -fuzztime 30s ./internal/obs
	$(GO) test -fuzz FuzzFormatTraceparent -fuzztime 30s ./internal/obs

race:
	$(GO) test -race -short ./...

# Race-run the serving layer and the durable store with coverage; fail if
# internal/store (the crash-recovery code) drops below 85%.
cover:
	$(GO) test -race -coverprofile=cover_service.out ./internal/service/...
	$(GO) test -race -coverprofile=cover_store.out ./internal/store/...
	@$(GO) tool cover -func=cover_service.out | awk '$$1=="total:"{print "internal/service coverage:", $$3}'
	@$(GO) tool cover -func=cover_store.out | awk '$$1=="total:"{sub(/%/,"",$$3); \
		printf "internal/store coverage: %s%%\n", $$3; \
		if ($$3+0 < 85) { print "FAIL: internal/store coverage below 85%"; exit 1 }}'

# Engine smoke: the simulation engine and the core under the race
# detector (golden runs, ring-vs-heap and batched-vs-unbatched arms, the
# ring queue's window-edge, wrap-around, far-lane and rebuild tests, and
# the queue storage tests TestQueueStorageBounded and, on real L50_W200
# traffic, TestArenaQueueStorageRealTraffic), then 20 s of each engine
# fuzzer beyond the committed corpora: the ring queue against the 4-ary
# heap and container/heap, and whole runs across the engine's arms.
engine-smoke:
	$(GO) test -race -count=1 ./internal/sim/ ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzEventQueue -fuzztime 20s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzEngineDifferential -fuzztime 20s ./internal/core

# Fleet smoke: boot a 3-node in-process fleet behind the router, spray
# concurrent requests, and assert single fleet-wide execution, node-loss
# re-homing with zero corrupt results, and a clean drain — all under the
# race detector. Then build hexd and run it as a backend and a router
# over it, one request through both, and a SIGTERM drain of each.
cluster-smoke:
	$(GO) test -race -count=1 ./internal/cluster/ ./internal/coalesce/ ./cmd/hexd/

# Sweep-jobs smoke: decomposition key equivalence (incl. the committed
# fuzz corpus), WFQ fairness/starvation properties, SSE streaming with
# Last-Event-ID reconnect, and the randomized kill-and-resume scenario
# (restart over the same store dir, only the gap recomputes) — all under
# the race detector.
jobs-smoke:
	$(GO) test -race -count=1 ./internal/jobs/

# Fuzz the sweep decomposition beyond the committed seed corpus: unit
# keys must equal single-run keys byte-for-byte, with stable order and
# no collisions.
fuzz-sweeps:
	$(GO) test -fuzz FuzzSweepDecompose -fuzztime 30s ./internal/jobs

# Campaign-pipeline smoke: every layer of the batched fast path under the
# race detector — grid-cache sharing across concurrent requests, batched
# units vs the single-run oracle, a batch of one taking the single-run
# path, an abandoned batch starting no unit, aggregate HXA1 round trip
# and corruption rejection, group commit (incl. crash/torn-tail fault
# injection, a key repeated inside one group across a reopen, and a
# replaced group member that must not count as quarantine on reopen),
# a segment that cannot be opened for want of file descriptors staying
# indexed rather than quarantined, legacy .rec files read as one-record
# segments, the write-behind writer's group commits, and sweep
# cancellation.
campaign-smoke:
	$(GO) test -race -count=1 -run 'TestGridCache|TestWriter|TestRunUnits' ./internal/service/
	$(GO) test -race -count=1 -run 'TestSweepBatched|TestSweepCancellation|TestCancelFinishedJobIsNoOp|TestWFQBatchFairness' ./internal/jobs/
	$(GO) test -race -count=1 -run 'TestAggregate|TestPutGroup|TestKillBeforeSegmentRename|TestSegment|TestLegacy' ./internal/store/

# OTLP-export smoke: the in-process fake collector proves a router-hop
# sweep exports one stitched trace (job root → unit spans → backend
# request spans with correct traceparent parentage), that a
# skew-envelope-violating unit is auto-re-run with the flight recorder
# armed and its dump attached to the exported span, that the re-run
# captures exactly the served run's event stream, and that a hung or
# dead collector only ever drops spans — the serving path never blocks.
otlp-smoke:
	$(GO) test -race -count=1 ./internal/obs/ ./internal/obs/export/
	$(GO) test -race -count=1 -run 'TestFleetStitchedTraceAndArmRerun|TestProxyHopStitching|TestRouterMetricsPrometheusLint' ./internal/cluster/
	$(GO) test -race -count=1 -run 'TestArmRerunReplaysServedRun' ./internal/service/

vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

fmt:
	gofmt -w .

# Size budget: non-test Go lines outside bench/ (the ROADMAP's line
# budget) and, separately, in bench/.
loc:
	@printf 'non-test Go outside bench/: '; \
		find . -name '*.go' ! -name '*_test.go' -not -path './bench/*' -not -path './.*' | xargs cat | wc -l
	@printf 'non-test Go in bench/:      '; \
		find ./bench -name '*.go' ! -name '*_test.go' | xargs cat | wc -l

# Full-scale reproduction of every table and figure (≈ minutes).
repro:
	$(GO) run ./cmd/hexpaper -exp all -runs 250 | tee paper_results.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/faulttolerance
	$(GO) run ./examples/selfstabilization
	$(GO) run ./examples/treecompare
	$(GO) run ./examples/freqmult
	$(GO) run ./examples/endtoend

clean:
	rm -f test_output.txt bench_output.txt cover_service.out cover_store.out obs_overhead.json
