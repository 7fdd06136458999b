# Local entry points that stay in lockstep with .github/workflows/ci.yml:
# each CI step invokes one of these targets, so a green `make ci` means a
# green pipeline.

GO ?= go

# Pinned linter/scanner versions; CI installs exactly these (cached), local
# runs skip with a notice when the tool is absent (the container has no
# network to install from).
STATICCHECK_VERSION ?= 2025.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: build loc test race bench bench-check bench-engine examples vet fmt staticcheck govulncheck deps check fuzz serve-smoke shard-smoke rollout-smoke ingest-smoke fault-smoke ci

build:
	$(GO) build ./...

# Non-test Go lines per package outside bench/, plus the total: the size
# trajectory ROADMAP aim 2 tracks, printed per PR by CI's build step.
loc:
	@git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^bench/' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub("/?[^/]*$$", "", d); loc[d == "" ? "." : d] += $$1; t += $$1 } \
		END { for (d in loc) printf "%7d  %s\n", loc[d], d | "sort -k2"; close("sort -k2"); printf "%7d  total\n", t }'

vet:
	$(GO) vet ./...

# Fails when any file is not gofmt-formatted (prints the offenders).
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# staticcheck/govulncheck run when installed (CI pins them via
# STATICCHECK_VERSION/GOVULNCHECK_VERSION; `go install
# honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)` locally), and
# skip with a notice otherwise so `make ci` works on a network-less box.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck: not installed, skipping (CI pins $(STATICCHECK_VERSION))"; fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "govulncheck: not installed, skipping (CI pins $(GOVULNCHECK_VERSION))"; fi

# Import boundaries. The mutable tier stores objects, not index structures:
# internal/lsm must not link the index registry or any index package beyond
# the exact scan. The experiment harness measures in-memory indexes:
# internal/experiments must not link persistence, sharding, the wire, the
# router, the mutable tier or the server. The HTTP front tier and the wire
# dialect route answers, they never compute one: internal/router and
# internal/wire must not link the index interface, the batch engine,
# persistence, any index kind, the mutable tier or the server.
deps:
	@out="$$($(GO) list -deps ./internal/lsm | grep -E '^repro/internal/(persist|core|knngraph|lsh|vptree)$$')"; \
	if [ -n "$$out" ]; then echo "internal/lsm must not depend on:"; echo "$$out"; exit 1; fi
	@out="$$($(GO) list -deps ./internal/experiments | grep -E '^repro/internal/(persist|shard|wire|router|lsm|server)$$')"; \
	if [ -n "$$out" ]; then echo "internal/experiments must not depend on:"; echo "$$out"; exit 1; fi
	@out="$$($(GO) list -deps ./internal/router ./internal/wire | grep -E '^repro/internal/(index|engine|persist|core|knngraph|lsh|vptree|seqscan|lsm|server)$$')"; \
	if [ -n "$$out" ]; then echo "internal/router and internal/wire must not depend on:"; echo "$$out"; exit 1; fi

# Static gate: formatting + vet + linters + import boundaries, exactly as CI
# runs them.
check: fmt vet staticcheck govulncheck deps

# -shuffle randomizes test order within each package on every run, so
# accidental inter-test state dependence fails fast instead of festering.
test:
	$(GO) test -shuffle=on ./...

# Race-check every package: a hand-kept list of "the concurrent ones" goes
# stale the moment a new package grows a goroutine (it once omitted
# internal/core, experiments and vptree). -short keeps the slow corpora
# out; the AllocsPerRun guards skip themselves under -race (the detector
# allocates) and run in the plain test job.
race:
	$(GO) test -race -short -shuffle=on ./...

# The benchmark is its own module (bench/go.mod, replace repro => ../), so
# `go build ./... && go test ./...` at the root never compiles it: vet and
# short-test it explicitly, or a facade change can break BENCHMARK.json's
# command unnoticed.
bench-check:
	$(GO) vet -C bench ./...
	$(GO) test -C bench -short ./...

# The example programs are documentation that compiles; run each one so it
# is also documentation that works (all five finish in under 20 s together).
examples:
	@for e in quickstart batchsearch dnasearch imagesearch textsearch; do \
		echo "go run ./examples/$$e"; \
		$(GO) run ./examples/$$e >/dev/null || exit 1; \
	done

# Short coverage-guided fuzz. FuzzLoad: corrupt index files must error,
# never panic or over-allocate; its checked-in seed corpus lives in
# internal/codec/testdata/fuzz (regenerate with WRITE_FUZZ_CORPUS=1 after
# format changes). FuzzNAPPScan: NAPP's bit-sliced ScanCount kernel must
# select the ids the list-merging reference selects, for any shape and
# threshold the fuzzer picks. FuzzDecodeObject: the JSON object
# decoder of every object type (queries, WAL-durable adds) must refuse or
# return something its distances can be computed on and that survives its own
# Encode; its seeds are kilobyte objects, so cap the minute the fuzzer would
# otherwise spend minimizing each new input. FuzzOpen: one file of a real
# mutable-tier directory (WAL, segment or tiers.json) replaced by fuzzed
# bytes must be refused or recovered into a searchable tree, never a panic or
# an allocation sized by a count the bytes merely claim. FuzzEditDistance: the
# bit-parallel edit distance must return the two-row dynamic program's integer
# for any pair of byte strings, in either argument order, and so must the
# prepared 1–64-byte pattern behind space.Many/ManyFrom, for two texts at a
# time and for one. FuzzL2Pair: both results of the L2 pair kernel behind
# space.Many/ManyFrom must be L2Sqr's, in either argument order, for any
# float32 bit patterns (NaN, ±Inf, subnormals). FuzzDecodeSearch: any search
# body must be refused or decoded into a request with exactly one of
# query/queries and k ≥ 1 that survives its own re-marshalling.
# FuzzParseParams: any method-params text must be refused or parsed into
# non-empty keys with finite values that survive their own String, and
# Resolve must answer the round-tripped params alike under every kind.
# FuzzParseText: any /metrics page must be refused or parsed, and Quantile
# over every histogram family of an accepted page must not panic. FuzzParse:
# any disk-fault spec (the PERMSERVE_FAULT_FS grammar) must be refused or
# armed, never a panic.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzLoad -fuzztime 30s ./internal/codec/
	$(GO) test -run '^$$' -fuzz FuzzNAPPScan -fuzztime 15s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzDecodeObject -fuzztime 10s -fuzzminimizetime 1s ./internal/dataset/
	$(GO) test -run '^$$' -fuzz FuzzOpen -fuzztime 15s -fuzzminimizetime 1s ./internal/lsm/
	$(GO) test -run '^$$' -fuzz FuzzEditDistance -fuzztime 10s ./internal/space/
	$(GO) test -run '^$$' -fuzz FuzzL2Pair -fuzztime 10s ./internal/vecmath/
	$(GO) test -run '^$$' -fuzz FuzzDecodeSearch -fuzztime 10s ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzParseParams -fuzztime 10s ./internal/experiments/
	$(GO) test -run '^$$' -fuzz FuzzParseText -fuzztime 10s ./internal/obs/
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/faultfs/

# In-process microbenchmarks: one row per distance at its corpus's shape and
# one query's bulk refine and pivot ranking, each beside the per-pair loop it
# replaced — l2/128-refine700-n40k and l2/128-pivots512 for SIFT,
# normleven/32-refine650-n4k and normleven/32-pivots512 for DNA reads — then
# one row per method over a warm 10k-point index plus permbench's two NAPP
# operating points. A convenience for a profile or a before/after look;
# performance claims are made with permbench (BENCHMARK.json, bench/).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkDistance$$' -benchmem ./internal/space/
	$(GO) test -run '^$$' -bench BenchmarkSearchHot -benchmem ./internal/core/

# Batch-engine throughput: the serial reference loop vs SearchBatch at
# 1/2/4/8 workers over the sequential scan.
bench-engine:
	$(GO) test -run '^$$' -bench BenchmarkSearchBatch -benchmem ./internal/engine/

# End-to-end smoke of the serving daemon: build permserve, write a demo
# index set, boot it on a free port, curl /healthz + a search + a hot
# reload, and require a graceful SIGTERM shutdown.
serve-smoke:
	$(GO) build -o bin/permserve ./cmd/permserve
	$(GO) build -o bin/metricscheck ./scripts/metricscheck
	./scripts/serve_smoke.sh bin/permserve bin/metricscheck

# End-to-end smoke of the sharded tier: shardsplit a corpus, boot one
# permserve per shard plus an unsharded baseline, front them with
# permrouter, and require byte-identical answers, fail-open/fail-closed
# degradation when a shard dies, and a graceful shutdown.
shard-smoke:
	$(GO) build -o bin/permserve ./cmd/permserve
	$(GO) build -o bin/permrouter ./cmd/permrouter
	$(GO) build -o bin/shardsplit ./cmd/shardsplit
	$(GO) build -o bin/metricscheck ./scripts/metricscheck
	./scripts/shard_smoke.sh bin

# End-to-end smoke of the replicated tier + rollout control plane: a
# 2-shard x 2-replica fleet behind permrouter -topology, one replica killed
# mid-traffic (answers stay byte-identical and non-partial), then permctl
# ships a new generation through (dead replica skipped, generation vector
# converges) and a regressed generation is automatically rolled back by the
# golden recall gate.
rollout-smoke:
	$(GO) build -o bin/permserve ./cmd/permserve
	$(GO) build -o bin/permrouter ./cmd/permrouter
	$(GO) build -o bin/shardsplit ./cmd/shardsplit
	$(GO) build -o bin/permctl ./cmd/permctl
	./scripts/rollout_smoke.sh bin

# End-to-end smoke of the mutable tier's durability: stream adds/deletes
# into the demo mutable index under live query traffic, seal a tier, then
# kill -9 mid-ingest and restart — every acknowledged write must survive
# and pre-kill answers must come back byte-identical.
ingest-smoke:
	$(GO) build -o bin/permserve ./cmd/permserve
	./scripts/ingest_smoke.sh bin/permserve

# End-to-end smoke of the fail-stop storage story: boot permserve with
# disk-fault injection armed (PERMSERVE_FAULT_FS), drive writes into a WAL
# fsync failure (503 poisoned), an ENOSPC seal (507 read-only) and a seal
# whose next WAL segment cannot be created (503, nothing served twice),
# assert /healthz surfaces the degraded index while searches keep serving,
# then restart clean and require zero acknowledged-write loss.
fault-smoke:
	$(GO) build -o bin/permserve ./cmd/permserve
	./scripts/fault_smoke.sh bin/permserve

ci: check build test bench-check examples race fuzz serve-smoke shard-smoke rollout-smoke ingest-smoke fault-smoke
