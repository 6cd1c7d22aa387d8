GO ?= go

# The telemetry layer threads atomics through every concurrent component, so
# the whole module runs under the race detector, not just the hot packages.
RACE_PKGS = ./...

.PHONY: all check fmt copy-lint vet build test race flake chaos chaos-ha fuzz bench bench-kernel bench-guard bench-e2e lines

all: check

check: fmt copy-lint vet build test race flake chaos chaos-ha fuzz bench-guard

# gofmt drift fails the build; .bench_build/ is the benchmark's scratch
# (it holds a Go build cache, not our sources).
fmt:
	@out="$$(gofmt -l . | grep -v '^\.bench_build/')"; test -z "$$out" || { echo "gofmt -l:"; echo "$$out"; exit 1; }

# The data-plane packages copy through bufpool.Copy / CopyN, never the
# stdlib's io.Copy family: handed a source the kernel cannot splice,
# (*os.File).ReadFrom and (*net.TCPConn).ReadFrom ignore the caller's buffer
# and allocate 32 KiB per call (DESIGN.md section 17, third turn). Draining
# a body into io.Discard is the one raw call allowed.
#
# And a whole object read into memory lands in a bufpool.Arrival, never in
# a bytes.Buffer or io.ReadAll: both double as they fill, so a 16 MiB file
# allocates 31 MiB and is copied twice on its way in (DESIGN.md section
# 10, where a whole object lands). No name is exempt. The metadata bodies
# still built that way live outside these directories: the release
# content internal/cvmfs/release.go assembles at publish time, the WAL
# record internal/store replays, the rule file internal/health reads.
COPY_LINT_DIRS = internal/chirp internal/xrootd internal/squid internal/hdfs internal/parrot internal/hepsim
copy-lint:
	@out="$$(grep -rnE 'io\.Copy(N|Buffer)?\(' --include='*.go' $(COPY_LINT_DIRS) | grep -v '_test\.go:' | grep -v 'io\.Copy(io\.Discard,')"; \
	test -z "$$out" || { echo "raw io.Copy in a data-plane package (use bufpool.Copy / CopyN):"; echo "$$out"; exit 1; }
	@out="$$(grep -rnE 'bytes\.Buffer|io\.ReadAll\(' --include='*.go' $(COPY_LINT_DIRS) | grep -v '_test\.go:')"; \
	test -z "$$out" || { echo "doubling payload sink in a data-plane package (use bufpool.Arrival):"; echo "$$out"; exit 1; }

# benchmark/ is its own module (it imports this one through a replace), so
# `go build ./...` and `go vet ./...` here never see it: deleting an API the
# harness calls would pass everything above and fail only in the pipeline.
vet:
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# Repeats the suites whose tests race real goroutines against each other
# (squid coalescing, replica elections, HA master publish order), so an
# ordering bug that shows once in twenty runs fails here, not in CI.
flake:
	$(GO) test -count=20 ./internal/squid/ ./internal/replica/
	$(GO) test -count=20 -run TestHA ./internal/wq/

# Fault-storm suite: the full deploy stack under scripted worker kills,
# chirp connection drops, and squid stalls, asserting zero task loss and
# byte-identical outputs (DESIGN.md §9). Always raced — the storms exist
# to shake out exactly the interleavings -race catches.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos' ./internal/faultinject/

# Control-plane failover storm: a 5-member replicated master fleet loses
# its leader twice mid-dispatch (plus replica-transport drops); survivors
# must elect, replay, and finish with exactly-one terminal outcome per
# task and byte-identical outputs to a kill-free run (DESIGN.md §14).
chaos-ha:
	$(GO) test -race -count=1 -run 'TestChaosHA' ./internal/faultinject/

# Native fuzzing of the wire-facing parsers, 30s per target. Checked-in
# seed corpora live in each package's testdata/fuzz/.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/trace/
	$(GO) test -fuzz FuzzDispatch -fuzztime $(FUZZTIME) ./internal/chirp/
	$(GO) test -fuzz FuzzReadEvents -fuzztime $(FUZZTIME) ./internal/telemetry/
	$(GO) test -fuzz FuzzDispatch -fuzztime $(FUZZTIME) ./internal/xrootd/
	$(GO) test -fuzz FuzzFetchReplies -fuzztime $(FUZZTIME) ./internal/xrootd/
	$(GO) test -fuzz FuzzBatchDispatch -fuzztime $(FUZZTIME) ./internal/wq/
	$(GO) test -fuzz FuzzPromParse -fuzztime $(FUZZTIME) ./internal/health/
	$(GO) test -fuzz FuzzBlockRoundTrip -fuzztime $(FUZZTIME) ./internal/tsdb/
	$(GO) test -fuzz FuzzSegmentReplay -fuzztime $(FUZZTIME) ./internal/tsdb/
	$(GO) test -fuzz FuzzReplicaWire -fuzztime $(FUZZTIME) ./internal/replica/
	$(GO) test -fuzz FuzzWALReplay -fuzztime $(FUZZTIME) ./internal/store/

# The size ROADMAP tracks: non-test Go lines outside the benchmark harness.
lines:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' | xargs cat | wc -l

bench:
	$(GO) test -bench=Fig -benchmem .

bench-kernel:
	$(GO) test ./internal/simevent/ -run XXX -bench . -benchmem

# The one regression guard: evaluates every rule table (BENCH_*.json —
# kernel, dataplane, scale, health, tsdb, challenge) in one pass. A rule
# is a benchmark, a metric and a bound: absolute for deterministic costs
# (allocs/op, bytes/sample, resident bytes per task), same-run ratio for
# the headline speedups, best-of-N against pinned samples for wall clock
# at the loose shared-host tolerance (tighten on quiet hardware:
# `go run ./cmd/bench-guard -time-tolerance 0.05`). One table:
# `go run ./cmd/bench-guard BENCH_scale.json`. Part of `make check`.
bench-guard:
	$(GO) run ./cmd/bench-guard

# The end-to-end benchmark as the pipeline runs it (BENCHMARK.json): every
# workload, untraced and traced, into .bench_build/report.json, then the
# bounds table against a parent report. Save the parent's once from a
# `git clone` of the parent commit (the same run.sh line there, with -out
# pointing at $(BENCH_PARENT) here). One run is one sample: a gain is claimed
# on >= 10 alternating parent/change pairs, so repeat both sides; alloc_mb
# repeats to ~0.5 %, wall clock to 10-30 %. Never edit benchmark/ or
# BENCHMARK.json in the change being measured.
BENCH_SEED ?= 1
BENCH_PARENT ?= .bench_build/parent.json
bench-e2e:
	bash benchmark/run.sh --seed $(BENCH_SEED) -out .bench_build/report.json
	@if [ -f $(BENCH_PARENT) ]; then bash benchmark/run.sh -compare $(BENCH_PARENT) .bench_build/report.json; \
	else echo "bench-e2e: no parent report at $(BENCH_PARENT); report kept in .bench_build/report.json"; fi
