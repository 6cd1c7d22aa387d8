GO ?= go

# The telemetry layer threads atomics through every concurrent component, so
# the whole module runs under the race detector, not just the hot packages.
RACE_PKGS = ./...

.PHONY: all check fmt copy-lint reach vet build cross test examples race flake chaos fuzz bench bench-kernel bench-guard bench-e2e lines

all: check

check: fmt copy-lint reach vet build cross test examples race flake chaos fuzz bench-guard

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
# content internal/cvmfs/release.go assembles at publish time and the
# registry page internal/health parses.
#
# And a line protocol reads its lines and keeps its connections through
# internal/wire, never a copy of its own: no ReadSlice( (the in-place line
# read) and no map[net.Conn] (an accept loop's tracking) in these
# directories outside tests (DESIGN.md section 10, one wire). chirp and
# xrootd each carried both until the copies drifted into a parse bug.
# internal/wq is held to the same rule and one more, no json.NewDecoder(:
# its messages come off the connection through wire.Conn.ReadFrame, which
# refuses a size over the bound before reading a byte of the body. A
# decoder over the socket buffers one JSON value with no bound, so a single
# peer streaming an endless object could grow the master's heap until the
# one process every worker hangs from died (DESIGN.md section 11).
# Nor does a payload leave the connection through a reader of its own: no
# Peek( and no io.LimitedReader{ there outside tests, only
# wire.Conn.ReadPayload (DESIGN.md section 10, one payload reader). chirp's
# client and server each carried one, and both waited forever to drain a
# payload after a file sink failed mid-splice.
#
# And the Lobster DB persists through internal/seglog, never a log of its
# own: no hash/crc32, os.Truncate or os.Rename in its non-test code
# (DESIGN.md section 14, one log). It and the since-deleted history store
# each carried their own CRC'd log until the same length-trusting read had
# been fixed in both.
#
# And a /metrics page is written by internal/telemetry's one writer
# (telemetry.Expo), never a second one: no "# HELP" or "# TYPE" string
# literal in non-test code outside internal/telemetry (DESIGN.md section
# 7, one observation format). The registry and the parser each carried an
# exposition writer, and the registry's escaped every label value twice
# (its own escaper, then %q), so a"b reached the fleet hub as a\"b and a
# tab as a literal \t. The parser's copy, which only tests called,
# escaped once, so the round-trip test that used it never saw the bug.
#
# And wq moves no files: no crypto/sha256, os.ReadFile( or os.WriteFile(
# in its non-test code (DESIGN.md section 11, task files). A task carries
# its arguments and a result the wrapper report the executor handed over
# with ExecContext.SetReport; what a task reads and writes travels over
# parrot/CVMFS, xrootd and chirp. The cacheable-input plane, sandbox
# staging and the sandbox-file output fallback were about 290 lines that
# no program reached, and a worker started without a storage element
# reported tasks succeeded whose outputs its sandbox cleanup then deleted.
#
# And the wrapper report is encoded once, by the worker's frame encoder,
# and decoded once, by the master's: no json.Marshal( and no
# encoding/base64 in non-test internal/wrapper or internal/wq code
# (DESIGN.md section 11, the result frame; section 17, eighth turn). The
# report used to be marshalled on its own, carried as a base64 output
# file, and decoded twice on the master: about 2.2 KB of a small task's
# allocation.
#
# And so are a task's arguments, by the master's frame encoder and the
# worker's decoder: no json.RawMessage in non-test internal/wq,
# internal/core, internal/hepsim or internal/wrapper, and no json.Marshal(
# or json.Unmarshal( in non-test internal/hepsim (DESIGN.md section 11, a
# task's arguments on the wire). core marshalled each record into a
# RawMessage that the frame decoder copied and hepsim decoded a second
# time: about 0.6 KB of a small task's allocation.
#
# And alerts read the process's own registry: no net/http in non-test
# internal/health code (DESIGN.md section 12, the in-process evaluator).
# Nothing scrapes. The fleet hub and lobster-fleet, about 830 lines that
# fetched other processes' pages and profiles over HTTP, ran in no
# program or chaos test, and no run's event log ever held an alert.
#
# And no request goes out on the untimed default HTTP client: no
# http.DefaultClient, and none of the http.Get / Head / Post / PostForm
# helpers that use it, in non-test code under internal/ or cmd/ (DESIGN.md
# section 10, one wire). frontier's client fell back to it when no client
# was injected, as in every deployed worker, so only a traced task had a
# deadline: a proxy that accepted and never answered held an untraced
# task's slot forever. Every client now carries a 30 s limit of its own.
#
# And the sim plane computes figures, not series: no telemetry, trace or
# health import in non-test internal/sim or internal/simevent code
# (DESIGN.md section 8, the sim plane's series). The model's figures come
# from BigRunResult; the real plane's components own every series. The
# mirror of 17 series, the per-attempt span trees and the health ticker
# that RunBig carried no program set, and they kept two rules alive that
# no lobster process could fire.
#
# And the squid answers its clients on the wire, never through net/http's
# server: no http.ResponseWriter, ServeHTTP or net/http/httptest in its
# non-test code (DESIGN.md section 10, the squid answers on the wire).
# That server half cost a hot conditions hit about 2.4 KB and 21
# allocations: a request, its header map, a url.URL, a context and a
# header clone per hit.
#
# And an HTTP GET goes out through wire.HTTPClient, never a second
# client: no http.Client, http.NewRequest, http.Transport or RoundTripper
# in non-test internal/ code, and no net/http import at all in non-test
# internal/parrot, internal/trace or internal/hepsim (DESIGN.md section
# 10, one GET client). frontier's GET, parrot's net/http client behind
# trace.WrapClient and the squid's origin http.Client were three clients
# with three timeout stories and three ways to carry the trace header,
# and parrot's read whatever length a proxy announced. cmd/lobster's
# /metrics scraper is outside internal/ and keeps its own.
#
# And a counter is published as a counter, never as a gauge: no
# GaugeFunc("lobster_..._total" in non-test internal/ code (DESIGN.md
# section 7, one count per event). A component whose Stats reports a
# count publishes that very telemetry.Counter with CounterVec.Publish.
# The xrootd data server exported its two counts through GaugeFunc, so
# its _total series read # TYPE gauge, which a reader takes for a level.
#
# And a server is wired when it is built: no atomic.Pointer to a
# trace.Tracer, a faultinject.Injector or a telemetry.Histogram in
# non-test internal/ code (DESIGN.md section 7, wired when built). The
# chirp server, the wq master and the wq worker each took theirs through
# a setter after their accept or receive loop had started, so every
# request paid an atomic load for a value that never changed after the
# first.
COPY_LINT_DIRS = internal/chirp internal/xrootd internal/squid internal/hdfs internal/parrot internal/hepsim internal/frontier
WIRE_LINT_DIRS = $(COPY_LINT_DIRS) internal/wq
LOG_LINT_DIRS = internal/store
copy-lint:
	@out="$$(grep -rnE 'io\.Copy(N|Buffer)?\(' --include='*.go' $(COPY_LINT_DIRS) | grep -v '_test\.go:' | grep -v 'io\.Copy(io\.Discard,')"; \
	test -z "$$out" || { echo "raw io.Copy in a data-plane package (use bufpool.Copy / CopyN):"; echo "$$out"; exit 1; }
	@out="$$(grep -rnE 'bytes\.Buffer|io\.ReadAll\(' --include='*.go' $(COPY_LINT_DIRS) | grep -v '_test\.go:')"; \
	test -z "$$out" || { echo "doubling payload sink in a data-plane package (use bufpool.Arrival):"; echo "$$out"; exit 1; }
	@out="$$(grep -rnE 'ReadSlice\(|map\[net\.Conn\]|json\.NewDecoder\(' --include='*.go' $(WIRE_LINT_DIRS) | grep -v '_test\.go:')"; \
	test -z "$$out" || { echo "a third copy of the line protocol's substrate (use internal/wire):"; echo "$$out"; exit 1; }
	@out="$$(grep -rnE '\.Peek\(|io\.LimitedReader\{' --include='*.go' $(WIRE_LINT_DIRS) | grep -v '_test\.go:')"; \
	test -z "$$out" || { echo "a payload reader of its own (use wire.Conn.ReadPayload):"; echo "$$out"; exit 1; }
	@out="$$(grep -rnE 'os\.(CreateTemp|Rename)\(' --include='*.go' internal/chirp | grep -v '_test\.go:' | grep -v '^internal/chirp/rename_windows\.go:')"; \
	test -z "$$out" || { echo "a chirp put spooled beside its target or published through os.Rename's Lstat (spool in the spool directory, publish with rename):"; echo "$$out"; exit 1; }
	@out="$$(grep -rnE 'crypto/sha256|os\.ReadFile\(|os\.WriteFile\(' --include='*.go' internal/wq | grep -v '_test\.go:')"; \
	test -z "$$out" || { echo "wq moving files (a task carries arguments, a result its report):"; echo "$$out"; exit 1; }
	@out="$$(grep -rnE 'json\.Marshal\(|"encoding/base64"' --include='*.go' internal/wrapper internal/wq | grep -v '_test\.go:')"; \
	test -z "$$out" || { echo "the report encoded on its own (it rides the result frame as a typed field):"; echo "$$out"; exit 1; }
	@out="$$( { grep -rn 'json\.RawMessage' --include='*.go' internal/wq internal/core internal/hepsim internal/wrapper; \
		grep -rnE 'json\.(Marshal|Unmarshal)\(' --include='*.go' internal/hepsim; } | grep -v '_test\.go:')"; \
	test -z "$$out" || { echo "task arguments coded on their own (they ride the task frame as a typed field):"; echo "$$out"; exit 1; }
	@out="$$(grep -rnE '"net/http' --include='*.go' internal/health | grep -v '_test\.go:')"; \
	test -z "$$out" || { echo "health scraping over HTTP (rules evaluate the process's own registry):"; echo "$$out"; exit 1; }
	@out="$$(grep -rnE '"lobster/internal/(telemetry|trace|health)"' --include='*.go' internal/sim internal/simevent | grep -v '_test\.go:')"; \
	test -z "$$out" || { echo "the sim plane registering series (figures come from its model):"; echo "$$out"; exit 1; }
	@out="$$(grep -rnE 'hash/crc32|os\.Truncate|os\.Rename' --include='*.go' $(LOG_LINT_DIRS) | grep -v '_test\.go:')"; \
	test -z "$$out" || { echo "a second crash-safe log (use internal/seglog):"; echo "$$out"; exit 1; }
	@out="$$(grep -rn '"unsafe"' --include='*.go' . | grep -v '_test\.go:' | grep -v '^\./internal/parrot/scan_linux\.go:' | grep -v '^\./\.bench_build/')"; \
	test -z "$$out" || { echo "unsafe outside internal/parrot/scan_linux.go:"; echo "$$out"; exit 1; }
	@out="$$(grep -rnE 'http\.(DefaultClient\b|Get\(|Head\(|Post\(|PostForm\()' --include='*.go' internal cmd | grep -v '_test\.go:')"; \
	test -z "$$out" || { echo "the untimed default HTTP client (give the request a deadline of its own):"; echo "$$out"; exit 1; }
	@out="$$(grep -rnE 'http\.ResponseWriter|ServeHTTP|net/http/httptest' --include='*.go' internal/squid | grep -v '_test\.go:')"; \
	test -z "$$out" || { echo "the squid serving through net/http (it answers on internal/wire):"; echo "$$out"; exit 1; }
	@out="$$(grep -rnE 'http\.(Client|NewRequest|Transport)\b|RoundTripper' --include='*.go' internal | grep -v '_test\.go:')"; \
	test -z "$$out" || { echo "a second HTTP client (GET through wire.HTTPClient):"; echo "$$out"; exit 1; }
	@out="$$(grep -rnE '"net/http' --include='*.go' internal/parrot internal/trace internal/hepsim | grep -v '_test\.go:')"; \
	test -z "$$out" || { echo "net/http on the worker's fetch path (GET through wire.HTTPClient):"; echo "$$out"; exit 1; }
	@out="$$(grep -rnE 'GaugeFunc\("lobster_[a-z0-9_]*_total"' --include='*.go' internal | grep -v '_test\.go:')"; \
	test -z "$$out" || { echo "a counter published as a gauge (publish the component's telemetry.Counter):"; echo "$$out"; exit 1; }
	@out="$$(grep -rnE 'atomic\.Pointer\[(trace\.Tracer|faultinject\.Injector|telemetry\.Histogram)\]' --include='*.go' internal | grep -v '_test\.go:')"; \
	test -z "$$out" || { echo "a tracer, fault plan or histogram wired after start (pass it to the constructor):"; echo "$$out"; exit 1; }
	@out="$$(grep -rnE '["`]# (HELP|TYPE) ' --include='*.go' . | grep -v '_test\.go:' | grep -v '^\./internal/telemetry/' | grep -v '^\./\.bench_build/')"; \
	test -z "$$out" || { echo "a second exposition writer (use internal/telemetry):"; echo "$$out"; exit 1; }

# A name, option or series exists only if a program reaches it (DESIGN.md,
# standing rules). reach_test.go type-checks the non-test code of both
# modules (benchmark/ calls into this one) and fails on an exported
# internal/ name or an unexported function no non-test code uses, and on
# an exported option field no non-test code sets, each unless its
# allowlist names the test seam and why. Five passes by hand had left 83
# such names standing; nothing else kept them from coming back.
reach:
	$(GO) test -count=1 -run '^TestReach$$' .

# benchmark/ is its own module (it imports this one through a replace), so
# `go build ./...` and `go vet ./...` here never see it: deleting an API the
# harness calls would pass everything above and fail only in the pipeline.
vet:
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...

build:
	$(GO) build ./...

# internal/parrot's hot scan calls the kernel directly on Linux
# (scan_linux.go); its !linux twin is the only scan other platforms run.
# Building for darwin and windows keeps that twin, and the rest of the
# module, compiling there.
cross:
	GOOS=darwin GOARCH=arm64 $(GO) build ./...
	GOOS=windows GOARCH=amd64 $(GO) build ./...

test:
	$(GO) test ./...

# Builds and runs every program under examples/ (the four run in well
# under a second) in one temporary directory that is removed afterwards:
# examples/simulation writes mcprod-trace.jsonl into its working directory.
# `go build ./...` only compiles them; this is what keeps them working.
examples:
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	for ex in examples/*/; do \
		name="$$(basename "$$ex")"; \
		$(GO) build -o "$$dir/$$name" "./$$ex" || exit 1; \
		(cd "$$dir" && "./$$name" >/dev/null) || { echo "examples: $$name failed"; exit 1; }; \
	done

race:
	$(GO) test -race $(RACE_PKGS)

# Repeats the suites whose tests race real goroutines against each other
# (squid coalescing; the worker-kill storm, whose abandoned attempts must
# never stage out; the wq master's one task-table lock and its two
# conditions, raced), so an ordering bug that shows once in twenty runs, or
# a few in a thousand, fails here, not in CI.
flake:
	$(GO) test -count=20 ./internal/squid/
	$(GO) test -count=200 -run 'TestChaosWorkerKillStorm$$' ./internal/faultinject/
	$(GO) test -race -count=50 -run '^(TestDispatchFIFO|TestManyTasksManyWorkers|TestDrainUnderBurst|TestDrainBurstAfterDeadline|TestMasterCloseUnblocksWaiters|TestWaitResultTimeout|TestEvictedWorkerSendsNoQueuedResults)$$' ./internal/wq/

# Fault-storm suite: the full deploy stack under scripted worker kills,
# chirp connection drops, and squid stalls, asserting zero task loss and
# byte-identical outputs (DESIGN.md §9). Always raced — the storms exist
# to shake out exactly the interleavings -race catches.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos' ./internal/faultinject/

# Native fuzzing of the wire- and disk-facing parsers, 30s per target. Checked-in
# seed corpora live in each package's testdata/fuzz/.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/trace/
	$(GO) test -fuzz FuzzDispatch -fuzztime $(FUZZTIME) ./internal/chirp/
	$(GO) test -fuzz FuzzReadEvents -fuzztime $(FUZZTIME) ./internal/telemetry/
	$(GO) test -fuzz FuzzDispatch -fuzztime $(FUZZTIME) ./internal/xrootd/
	$(GO) test -fuzz FuzzFetchReplies -fuzztime $(FUZZTIME) ./internal/xrootd/
	$(GO) test -fuzz FuzzLine -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -fuzz FuzzBatchDispatch -fuzztime $(FUZZTIME) ./internal/wq/
	$(GO) test -fuzz FuzzTaskFrame -fuzztime $(FUZZTIME) ./internal/wq/
	$(GO) test -fuzz FuzzPromParse -fuzztime $(FUZZTIME) ./internal/health/
	$(GO) test -fuzz FuzzWALReplay -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -fuzz FuzzReplay -fuzztime $(FUZZTIME) ./internal/seglog/
	$(GO) test -fuzz FuzzDecode -fuzztime $(FUZZTIME) ./internal/wrapper/
	$(GO) test -fuzz FuzzRequest -fuzztime $(FUZZTIME) ./internal/squid/
	$(GO) test -fuzz FuzzResponse -fuzztime $(FUZZTIME) ./internal/frontier/
	$(GO) test -fuzz FuzzPeerBytes -fuzztime $(FUZZTIME) ./internal/parrot/
	$(GO) test -fuzz FuzzLoadState -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -fuzz FuzzParseConfig -fuzztime $(FUZZTIME) ./internal/core/

# The size ROADMAP tracks: non-test Go lines outside the benchmark harness.
lines:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' | xargs cat | wc -l

bench:
	$(GO) test -bench=Fig -benchmem .

# Both kernels: the discrete-event simulator's and the hepsim event kernel
# every analysis and simulation task runs (MB/s of input, 0 allocs/op).
bench-kernel:
	$(GO) test ./internal/simevent/ -run XXX -bench . -benchmem
	$(GO) test ./internal/hepsim/ -run XXX -bench Kernel -benchmem

# The one regression guard: evaluates every rule table (BENCH_*.json —
# kernel, dataplane, scale, health) in one pass. A rule
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
