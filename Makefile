# Local entry points that stay in lockstep with .github/workflows/ci.yml:
# each CI step invokes one of these targets, so a green `make ci` means a
# green pipeline.

GO ?= go

# Pinned linter/scanner versions; CI installs exactly these (cached), local
# runs skip with a notice when the tool is absent (the container has no
# network to install from).
STATICCHECK_VERSION ?= 2025.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: build loc reach test test-arms race bench bench-ab bench-check bench-engine layout examples vet fmt staticcheck govulncheck deps check fuzz serve-smoke shard-smoke rollout-smoke ingest-smoke fault-smoke ci

build:
	$(GO) build ./...

# Non-test Go lines and assembly (*.s) lines per package outside bench/,
# plus the totals: the size trajectory ROADMAP aim 2 tracks, printed per PR by
# CI's build step.
loc:
	@git ls-files '*.go' '*.s' | grep -v -e '_test\.go$$' -e '^bench/' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub("/?[^/]*$$", "", d); if (d == "") d = "."; k = $$2 ~ /\.s$$/ ? "asm" : "go"; \
			pkg[d] = 1; loc[d, k] += $$1; t[k] += $$1 } \
		END { printf "%7s %5s  %s\n", "go", "asm", "package"; \
			for (d in pkg) printf "%7d %5d  %s\n", loc[d, "go"], loc[d, "asm"], d | "sort -k3"; close("sort -k3"); \
			printf "%7d %5d  total\n", t["go"], t["asm"] }'

# Reachability: every function the module declares is linked into one of the
# binaries it ships (cmd/, examples/, scripts/, bench/permbench) or named with
# a reason in scripts/reach.keep; fails on anything else and on a stale keep
# entry.
reach:
	./scripts/reach.sh

# The second pass vets the tree as arm64 builds it, so the portable Go path
# behind each amd64 assembly kernel keeps compiling where nothing runs it.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

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
# internal/lsm must not link the index registry, any index package or the
# batch engine. The experiment harness measures in-memory indexes:
# internal/experiments must not link persistence, sharding, the wire, the
# router, the mutable tier or the server, and the serving daemon must not
# link the experiment harness, its evaluation or its projections (the
# request-param vocabulary it shares with the harness lives in
# internal/index). The HTTP front tier and the wire
# dialect route answers, they never compute one: internal/router and
# internal/wire must not link the index interface, the batch engine,
# persistence, any index kind, the mutable tier or the server. The distance
# kernels are a leaf layer that every index builds on: internal/space,
# internal/topk, internal/scratch and internal/vecmath must not link the
# index interface, the pool, an index kind, the pivot sets or the mutable
# tier.
deps:
	@out="$$($(GO) list -deps ./internal/lsm | grep -E '^repro/internal/(persist|core|knngraph|lsh|vptree|seqscan|engine)$$')"; \
	if [ -n "$$out" ]; then echo "internal/lsm must not depend on:"; echo "$$out"; exit 1; fi
	@out="$$($(GO) list -deps ./internal/experiments | grep -E '^repro/internal/(persist|shard|wire|router|lsm|server)$$')"; \
	if [ -n "$$out" ]; then echo "internal/experiments must not depend on:"; echo "$$out"; exit 1; fi
	@out="$$($(GO) list -deps ./internal/server | grep -E '^repro/internal/(experiments|eval|projection)$$')"; \
	if [ -n "$$out" ]; then echo "internal/server must not depend on:"; echo "$$out"; exit 1; fi
	@out="$$($(GO) list -deps ./internal/router ./internal/wire | grep -E '^repro/internal/(index|engine|persist|core|knngraph|lsh|vptree|seqscan|lsm|server)$$')"; \
	if [ -n "$$out" ]; then echo "internal/router and internal/wire must not depend on:"; echo "$$out"; exit 1; fi
	@out="$$($(GO) list -deps ./internal/space ./internal/topk ./internal/scratch ./internal/vecmath | grep -E '^repro/internal/(index|engine|core|seqscan|permutation|lsm)$$')"; \
	if [ -n "$$out" ]; then echo "internal/space, topk, scratch and vecmath must not depend on:"; echo "$$out"; exit 1; fi

# Static gate: formatting + vet (amd64 and arm64) + linters + import
# boundaries, exactly as CI runs them.
check: fmt vet staticcheck govulncheck deps

# -shuffle randomizes test order within each package on every run, so
# accidental inter-test state dependence fails fast instead of festering.
test:
	$(GO) test -shuffle=on ./...

# Every arm runs the whole suite. On amd64 the untagged run tests the arms
# this CPU picks (AVX2 where it has it); the test-only build tags force the
# others: purego leaves the assembly out, so the Go bodies every other GOARCH
# ships run (the L2 pair loop, add16, editPair), and noavx2 makes
# vecmath.AVX2 false, so the SSE2 L2 pass and the Go bodies behind every AVX2
# arm run. Release builds carry no tag. arm64 is vetted (make vet) but not
# run: no emulator is installed.
test-arms:
	$(GO) test -shuffle=on -tags purego ./...
	$(GO) test -shuffle=on -tags noavx2 ./...

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

# Short coverage-guided fuzz. Every line caps minimizing at one second:
# uncapped, the fuzzer can spend most of its -fuzztime shrinking one new input
# (kilobyte objects, 10000-deep nesting) while its exec rate falls toward
# zero. FuzzLoad: corrupt index files must error,
# never panic or over-allocate; its checked-in seed corpus lives in
# internal/codec/testdata/fuzz (regenerate with WRITE_FUZZ_CORPUS=1 after
# format changes). FuzzNAPPScan: NAPP's bit-sliced ScanCount kernel (its
# AVX2 block where the CPU has it) must select the ids the list-merging
# reference selects, for any shape and threshold the fuzzer picks. FuzzDecodeObject: the JSON object
# decoder of every object type (queries, WAL-durable adds) must refuse or
# return something its distances can be computed on and that survives its own
# Encode. FuzzOpen: one file of a real
# mutable-tier directory (WAL, segment or tiers.json) replaced by fuzzed
# bytes must be refused or recovered into a searchable tree, never a panic or
# an allocation sized by a count the bytes merely claim. FuzzEditDistance: the
# bit-parallel edit distance must return the two-row dynamic program's integer
# for any pair of byte strings, in either argument order, and so must the
# prepared 1–64-byte pattern behind space.Many/ManyFrom, for two texts at a
# time and for one, and for four on the AVX2 pass where the host runs it. FuzzL2Pair: both results of the L2 pair kernel behind
# space.Many/ManyFrom must be the Go loop's and L2Sqr's, in either argument
# order, for any float32 bit patterns (NaN, ±Inf, subnormals), on every
# assembly arm the host runs (SSE2 on amd64, and AVX2 where the CPU has it). FuzzDecodeSearch: the
# one-pass search and /add envelope readers must accept exactly the bodies
# json.Unmarshal into the request struct accepts, with equal fields.
# FuzzValue: internal/jsonscan's reader must accept exactly
# what json.Valid accepts.
# FuzzParseParams: any method-params text must be refused or parsed into
# non-empty keys with finite values that survive being written back in its
# syntax, and Resolve must answer the round-tripped params alike under every
# kind.
# FuzzParseText: any /metrics page must be refused or parsed, and Quantile
# over every histogram family of an accepted page must not panic. FuzzParse:
# any disk-fault spec (the PERMSERVE_FAULT_FS grammar) must be refused or
# armed, never a panic.
# FuzzEditBound: the composition bound behind the edit-distance screen must
# not exceed EditDistance, nor, scaled, NormalizedLevenshtein's Distance, for
# any pair of byte strings (empty, past one 64-byte word, outside ACGT), and
# the screened selection over strings built from the pair must keep what
# measuring them all keeps.
# FuzzReadSetManifest, FuzzReadTopology: any bytes as a shard-set manifest or
# a fleet topology file must be refused or read into a value that passes
# Validate, never a panic.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzLoad -fuzztime 30s -fuzzminimizetime 1s ./internal/codec/
	$(GO) test -run '^$$' -fuzz FuzzNAPPScan -fuzztime 15s -fuzzminimizetime 1s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzDecodeObject -fuzztime 10s -fuzzminimizetime 1s ./internal/dataset/
	$(GO) test -run '^$$' -fuzz FuzzOpen -fuzztime 15s -fuzzminimizetime 1s ./internal/lsm/
	$(GO) test -run '^$$' -fuzz FuzzEditDistance -fuzztime 10s -fuzzminimizetime 1s ./internal/space/
	$(GO) test -run '^$$' -fuzz FuzzL2Pair -fuzztime 10s -fuzzminimizetime 1s ./internal/vecmath/
	$(GO) test -run '^$$' -fuzz FuzzDecodeSearch -fuzztime 10s -fuzzminimizetime 1s ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzValue -fuzztime 10s -fuzzminimizetime 1s ./internal/jsonscan/
	$(GO) test -run '^$$' -fuzz FuzzParseParams -fuzztime 10s -fuzzminimizetime 1s ./internal/index/
	$(GO) test -run '^$$' -fuzz FuzzParseText -fuzztime 10s -fuzzminimizetime 1s ./internal/obs/
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s -fuzzminimizetime 1s ./internal/faultfs/
	$(GO) test -run '^$$' -fuzz FuzzEditBound -fuzztime 10s -fuzzminimizetime 1s ./internal/space/
	$(GO) test -run '^$$' -fuzz FuzzReadSetManifest -fuzztime 10s -fuzzminimizetime 1s ./internal/shard/
	$(GO) test -run '^$$' -fuzz FuzzReadTopology -fuzztime 10s -fuzzminimizetime 1s ./internal/rollout/

# In-process microbenchmarks: one row per distance at its corpus's shape, the
# edit-distance bodies called directly (normleven/32-pair: two editPair
# passes; normleven/32-quad: one four-lane AVX2 pass; four distances an op),
# and one query's bulk refine and pivot ranking, each beside the per-pair loop it
# replaced — l2/128-refine700-n40k (cache-missing candidates, which the bulk
# call prefetches ahead and the loop does not) and l2/128-pivots512 for SIFT,
# normleven/32-refine650-n4k and normleven/32-pivots512 for DNA reads — then
# one row per method over a warm 10k-point index plus permbench's NAPP
# operating points (SIFT at t=22; DNA on dna-direct's corpus, where the
# edit-distance screen skips much, and on seed 7's, where it skips almost
# nothing), one point's 32 closest of 512 pivots under L2, where all are
# measured, and under both DNA corpora, screened beside measured
# (BenchmarkClosest), NAPP's bitmap scan alone at permbench's SIFT shape
# (BenchmarkScanCount), one pass of the L2 pair kernel at 128 dimensions as
# dispatched, beside each assembly arm the host runs (SSE2, AVX2) and the Go
# loop (BenchmarkL2SqrPair), and the request path before the
# index: the search-body reader on permbench's three request shapes
# (BenchmarkDecodeSearch) and one query's object decode, dense and string
# (BenchmarkDecode). A convenience for a profile; a before/after row comes
# from `make bench-ab`, and performance claims are made with permbench
# (BENCHMARK.json, bench/).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkDistance$$' -benchmem ./internal/space/
	$(GO) test -run '^$$' -bench BenchmarkSearchHot -benchmem ./internal/core/
	$(GO) test -run '^$$' -bench BenchmarkScanCount -benchmem ./internal/core/
	$(GO) test -run '^$$' -bench BenchmarkClosest -benchmem ./internal/permutation/
	$(GO) test -run '^$$' -bench BenchmarkL2SqrPair -benchmem ./internal/vecmath/
	$(GO) test -run '^$$' -bench BenchmarkDecodeSearch -benchmem ./internal/wire/
	$(GO) test -run '^$$' -bench 'BenchmarkDecode$$' -benchmem ./internal/dataset/

# A/B of in-process benchmarks between two revisions, e.g.
#   make bench-ab A=HEAD~1 B=HEAD PKG=./internal/space BENCH='BenchmarkDistance/l2/128-refine'
# Builds one test binary per rev from git archive extracts, plus a second
# build of A from a second extract (A', the control arm), and runs the three
# PAIRS times (default 8) in an order rotated every pair; prints every run,
# then per row the median [q1-q3] of each side, A' vs A (the noise floor B
# vs A must clear) and B vs A, and each one's win count against A.
# One run of a row swings by as much as the effects it is cited for, so a
# before/after row comes from here, not from two separate `make bench` runs.
# Too slow for CI.
bench-ab:
	./scripts/bench_ab.sh

# Batch-engine throughput: the serial reference loop vs SearchBatch at
# 1/2/4/8 workers over the sequential scan, then Pool.For's fan-out overhead
# on trivial bodies (the cost floor of every parallel loop).
bench-engine:
	$(GO) test -run '^$$' -bench 'BenchmarkSearchBatch|BenchmarkPoolFor' -benchmem ./internal/engine/

# Code placement on the served NAPP path: build permserve into a temp dir and
# print the address and size of the []float32 instantiations of
# space.Closest, space.Many, space.Nearest and NAPP's scan, then the DNA
# path's: the []uint8 space.Closest and space.Nearest, (*Scratch).editClosest,
# editPair, editGroup, editQuad and its AVX2 pass. Where the linker places
# these shared generic instantiations depends on every package that uses
# them, so a change to code permserve never runs can move them and shift
# permbench's SIFT rows; diff this output between two trees before reading
# an A/B pair. It shows a placement change, it does not control for one.
layout:
	@d="$$(mktemp -d)"; trap 'rm -rf "$$d"' EXIT; \
	$(GO) build -o "$$d/permserve" ./cmd/permserve && \
	$(GO) tool nm -n -size "$$d/permserve" | grep -E 'space\.(Closest|Many|Nearest)\[go\.shape\.\[\]float32|core\.\(\*NAPP\[go\.shape\.\[\]float32\]\)\.scan|space\.(Closest|Nearest)\[go\.shape\.\[\]uint8|space\.\(\*Scratch\)\.editClosest$$|space\.edit(Pair|Group|Quad|QuadSteps)(\.abi0)?$$'

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

ci: check build reach test test-arms bench-check examples race fuzz serve-smoke shard-smoke rollout-smoke ingest-smoke fault-smoke
