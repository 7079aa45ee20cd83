GO ?= go

.PHONY: build test race vet fmt-check lint lint-json fuzz fuzz-smoke bench gobench-smoke bench-smoke bench-check chaos-smoke verify

build:
	$(GO) build ./...

# -shuffle=on randomizes test (and subtest) execution order so
# order-dependent tests surface instead of passing by accident.
test:
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...

# fmt-check fails when any Go file is not gofmt-formatted, listing the
# offenders.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# lint is the repo-specific determinism & concurrency pass — the
# determinism analyzers (norawtime, noglobalrand, floateq,
# uncheckederr, ctxpropagate, storeappend) plus the flow-aware set
# built on the internal CFG (spanend, goroutineleak, lockheld,
# frameexhaustive, metricname; DESIGN.md §13) and unusedexport, which
# fails on an internal/ export that nothing outside its own package's
# tests reaches (DESIGN.md §13). Findings exit nonzero; grandfathered
# counts live in lint.baseline (currently empty).
lint:
	$(GO) run ./cmd/cloudyvet ./...

# lint-json is the CI-facing variant: same run, findings as a JSON
# array for the GitHub annotation step.
lint-json:
	$(GO) run ./cmd/cloudyvet -json ./...

race:
	$(GO) test -race -shuffle=on ./...

# Short fuzz pass over the text and binary codecs, the lazily seeded
# random source, the median's confidence interval, the digest's shift
# score and its decode into a reused digest (regression corpus + 10s
# each).
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzImportPings -fuzztime=10s ./internal/atlasfmt/
	$(GO) test -run=NONE -fuzz=FuzzImportTraces -fuzztime=10s ./internal/atlasfmt/
	$(GO) test -run=NONE -fuzz=FuzzReadPingsCSV -fuzztime=10s ./internal/dataset/
	$(GO) test -run=NONE -fuzz=FuzzReadTracesJSONL -fuzztime=10s ./internal/dataset/
	$(GO) test -run=NONE -fuzz=FuzzDec -fuzztime=10s ./internal/binfmt/
	$(GO) test -run=NONE -fuzz=FuzzWireDecode -fuzztime=10s ./internal/wirecodec/
	$(GO) test -run=NONE -fuzz=FuzzSegmentDecode -fuzztime=10s -fuzzminimizetime=1x ./internal/segment/
	$(GO) test -run=NONE -fuzz=FuzzSketchMerge -fuzztime=10s -fuzzminimizetime=1x ./internal/sketch/
	$(GO) test -run=NONE -fuzz=FuzzSketchShift -fuzztime=10s -fuzzminimizetime=1x ./internal/sketch/
	$(GO) test -run=NONE -fuzz=FuzzSketchDecodeInto -fuzztime=10s -fuzzminimizetime=1x ./internal/sketch/
	$(GO) test -run=NONE -fuzz=FuzzSource -fuzztime=10s ./internal/detrand/
	$(GO) test -run=NONE -fuzz=FuzzMedianCI -fuzztime=10s ./internal/stats/

# fuzz-smoke is the pre-merge slice of the fuzz pass: 2s per codec
# target, enough to replay the corpus and shake out shallow regressions
# on every verify run. The segment/sketch targets cap minimization at
# one exec: their seeds are whole ~100 KB segment images, and default
# minimization would stall for a minute per interesting input.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzImportPings -fuzztime=2s ./internal/atlasfmt/
	$(GO) test -run=NONE -fuzz=FuzzImportTraces -fuzztime=2s ./internal/atlasfmt/
	$(GO) test -run=NONE -fuzz=FuzzReadPingsCSV -fuzztime=2s ./internal/dataset/
	$(GO) test -run=NONE -fuzz=FuzzReadTracesJSONL -fuzztime=2s ./internal/dataset/
	$(GO) test -run=NONE -fuzz=FuzzDec -fuzztime=2s ./internal/binfmt/
	$(GO) test -run=NONE -fuzz=FuzzWireDecode -fuzztime=2s ./internal/wirecodec/
	$(GO) test -run=NONE -fuzz=FuzzSegmentDecode -fuzztime=2s -fuzzminimizetime=1x ./internal/segment/
	$(GO) test -run=NONE -fuzz=FuzzSketchMerge -fuzztime=2s -fuzzminimizetime=1x ./internal/sketch/
	$(GO) test -run=NONE -fuzz=FuzzSketchShift -fuzztime=2s -fuzzminimizetime=1x ./internal/sketch/
	$(GO) test -run=NONE -fuzz=FuzzSketchDecodeInto -fuzztime=2s -fuzzminimizetime=1x ./internal/sketch/
	$(GO) test -run=NONE -fuzz=FuzzSource -fuzztime=2s ./internal/detrand/
	$(GO) test -run=NONE -fuzz=FuzzMedianCI -fuzztime=2s ./internal/stats/

# Full Go benchmark suite with allocation stats, including the store
# fan-out/merge and the serve cached-vs-cold comparison. For measuring
# while you work; the repository's benchmark is ./bench, below.
bench:
	$(GO) test -run=NONE -bench=. -benchmem ./...

# Every Go benchmark once, one iteration each: proves each still runs
# to completion (a benchmark that fails at b.N = 1 fails `make bench`
# too), without measuring anything.
gobench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# One short pass over every workload of the repository benchmark
# (BENCHMARK.json): proves each runs end to end and passes its
# validity checks, without statistically meaningful timing.
bench-smoke:
	$(GO) run ./bench -smoke

# Two interleaved sets of three full runs compared metric by metric;
# writes bench/out/check.json. The non-regression proof for a PR.
bench-check:
	$(GO) run ./bench -check 3

# Chaos slice under the race detector. Cluster: one worker of three
# dies mid-stream, its shard must be reassigned and the merged store
# must seal bit-identical to the single-process run. Engine: the
# dispatcher/worker/collector join under cancellation, fault profiles
# and sink fan-out, and the retry/breaker counters pinned per fault
# profile, at one and four procs.
chaos-smoke:
	$(GO) test -race -run 'TestChaosWorkerKilledMidSweep|TestChaosWindowedReplay' -count=1 ./internal/cluster/
	$(GO) test -race -cpu 1,4 -run 'TestCancellation|TestChaosProfiles|TestResilienceScheduleGolden|TestSinksFanOut' -count=1 ./internal/measure/

# verify is the pre-merge gate: formatting (gofmt), generic static
# analysis (vet), the repo-specific determinism/concurrency lint
# (cloudyvet), the full shuffled suite under the race detector, and a
# fuzz smoke pass over the codec corpus.
verify: fmt-check vet lint race fuzz-smoke
