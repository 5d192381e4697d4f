# voltnoise build and verification targets.
#
#   make             tier-1 gate: build, vet, full test suite, and the
#                    benchmark module's vet and short tests
#   make race        race detector over all internal packages
#   make bench       serial-vs-parallel engine benchmarks
#   make bench-smoke every benchmark in the module once, as a smoke
#                    test
#   make bench-ab BASE=<rev>
#                    the performance gate: the bench/ workloads of
#                    BENCHMARK.json on BASE and on the working tree in
#                    10 alternating pairs, judged by paired ratios
#   make fuzz-smoke  short fuzzing pass over the request validator,
#                    end-to-end runs of tiny requests, the stream
#                    assembler, the journal replayer, the
#                    client's SSE frame parser, the engine kernels and
#                    the workloads' held power samples (plus their seed
#                    corpora)
#   make profile     CPU profiles of the FrequencySweep pair, of
#                    ResonanceDiscovery and of a 16-lane batch session
#                    into results/ for step-kernel hot-spot digging
#   make run-service start the voltnoised HTTP service on :8080
#   make fault       fault-injection suite: store failures, corruption,
#                    crash recovery, journaled shutdown
#   make recover-smoke kill -9 a live voltnoised and verify the cache
#                    and journal survive the restart
#   make stream-smoke kill a watching client mid-sweep and verify the
#                    SSE stream resumes by Last-Event-ID with a
#                    byte-identical assembled result
#   make ci          everything the CI gate runs (tier-1 + race +
#                    fault injection + fuzz smoke + batch determinism +
#                    stream smoke + bench smoke + bench-ab against
#                    the merge base with main)
#
# BASE names the revision bench-ab compares the working tree with;
# FUZZTIME stretches the fuzz-smoke budget per target.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build vet test tier1 bench-api race batch-determinism fuzz-smoke fault recover-smoke stream-smoke bench bench-smoke bench-ab profile run-service ci clean

all: tier1

build:
	$(GO) build ./...

# vet also fails when any Go file in the tree is not gofmt-clean, and
# it vets (arm64) and builds (386) the tree for architectures without
# the AVX2 kernels, so the pure-Go kernel paths keep compiling. Last,
# it keeps the width-1 shims (pdn.NewTransientAt, core.NewSession,
# SessionPool.Get) for the benchmark's per-layer replays alone: no
# non-test Go file outside bench/ but the two that define them may
# call them.
SHIM_CALLS = grep -rlF --include='*.go' --exclude='*_test.go' \
	--exclude-dir=bench --exclude-dir=.bench_build \
	-e 'NewTransientAt(' -e 'NewSession(' -e 'Sessions().Get(' . | \
	grep -vx -e ./internal/pdn/transient.go -e ./internal/core/session.go

vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) build ./...
	test -z "$$(gofmt -l .)"
	@shims="$$($(SHIM_CALLS))"; test -z "$$shims" || \
		{ echo "width-1 shims called outside bench/ in:" $$shims; exit 1; }

test:
	$(GO) test ./...

# tier1 is the repo's compatibility gate: every change must keep it
# green. The benchmark under bench/ is a module of its own, so the
# root build and test never compile it; bench-api vets it and runs its
# short tests (offline, a few seconds) so an API change that breaks
# the benchmark fails here.
tier1: build vet test bench-api

bench-api:
	$(GO) -C bench vet ./...
	$(GO) -C bench test -short ./...

# race runs the internal packages under the race detector. The
# deterministic worker-pool engine (internal/exec) and every study
# adopted onto it must stay race-clean; the determinism tests double
# as race probes because they run serial and 8-worker variants of the
# same studies.
race:
	$(GO) test -race ./internal/...

# batch-determinism runs the lockstep-batching determinism suites
# under the race detector: every study must produce results
# bit-identical to its serial width-1 run across its (workers, batch)
# grid, and the shared batch-session pool and the stolen-chunk
# scheduler must stay race-clean while doing it. The grids: noise
# sweeps and mappings batch {0,1,3,4,8,16} x workers {1,4,8} (the
# frequency sweep has 16 runs, so it reaches a full 16-lane batch);
# noise resonance search batch {0,1,3,8,16} x workers {1,2,8}; the
# service batch {1,3,8,16} x workers {1,4,8}; vmin, epi and
# population batch {1,3,8} x workers {1,4,8}. Batch 0 is the auto width. internal/noise
# alone took 479 s under -race on a shared 2-vCPU host, close to go
# test's default 600 s limit, so the timeout is set at 2.5x that.
batch-determinism:
	$(GO) test -race -timeout 20m -run 'Batch|Determinism|Invariance' ./internal/noise/ ./internal/vmin/ ./internal/epi/ ./internal/core/ ./internal/population/ ./internal/service/ ./internal/scheduler/

# fuzz-smoke runs each fuzz target for FUZZTIME on top of its committed
# seed corpus: the request validator (decode -> normalize -> hash
# pipeline), tiny validated requests run end to end through the real
# lab runner (no panic; a payload or an error), the stream assembler
# (arbitrary event streams, as a watching client reads them off the
# network), the write-ahead journal
# replayer (arbitrary on-disk bytes), the client's SSE frame parser
# (arbitrary stream bytes), the in-place batch substitution kernels
# (random sparse systems, every lane width, vector and Go bodies vs the
# element-wise reference), the batch engine's load fill (random
# per-lane loads at widths 1-17 vs per-lane width-1 engines), the
# skitter sticky state machine (random configs x voltage walks,
# certified table vs exact evaluation), and the held power samples of
# the square wave and the dI/dt stressmark (engine clocks from random
# start times vs Power at every step of each hold). Go
# allows one -fuzz pattern per package invocation, so the targets run
# back to back.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzRequestValidate -fuzztime $(FUZZTIME) ./internal/service
	$(GO) test -run '^$$' -fuzz FuzzRunRequest -fuzztime $(FUZZTIME) ./internal/service
	$(GO) test -run '^$$' -fuzz FuzzAssembleResult -fuzztime $(FUZZTIME) ./internal/service
	$(GO) test -run '^$$' -fuzz FuzzJournalReplay -fuzztime $(FUZZTIME) ./internal/service/journal
	$(GO) test -run '^$$' -fuzz FuzzSSEParse -fuzztime $(FUZZTIME) ./internal/service/client
	$(GO) test -run '^$$' -fuzz FuzzSolveBatchInPlace -fuzztime $(FUZZTIME) ./internal/pdn
	$(GO) test -run '^$$' -fuzz FuzzBatchLoadFill -fuzztime $(FUZZTIME) ./internal/pdn
	$(GO) test -run '^$$' -fuzz FuzzSkitterSticky -fuzztime $(FUZZTIME) ./internal/skitter
	$(GO) test -run '^$$' -fuzz FuzzSquareWaveHold -fuzztime $(FUZZTIME) ./internal/signal
	$(GO) test -run '^$$' -fuzz FuzzDidtHold -fuzztime $(FUZZTIME) ./internal/stressmark

# bench compares the serial (Workers=1, Batch=1: the lane-per-run
# shape every pre-batching release ran) and parallel (auto workers and
# lane width under the stolen-chunk scheduler) paths of the hot
# studies. Results are bit-identical either way; only ns/op moves.
bench:
	$(GO) test -run NONE -bench 'FrequencySweep(Serial|Parallel)|EPIProfile(Serial|Parallel)|PopulationStudy(Serial|Parallel)' -benchtime 3x .

# bench-smoke runs every benchmark in the module once — the root
# study benchmarks and the in-package layer benchmarks under
# internal/ — so that each keeps building and running; it times
# nothing (bench-ab does).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# bench-ab is the performance gate. cmd/benchab checks BASE out as a
# git worktree under .bench_build/ and runs every workload of
# BENCHMARK.json in 10 alternating base/change pairs, seeds 1-10,
# through each tree's own bench/run.sh. It fails when the upper edge of
# the bootstrap 95 % interval of an end-to-end metric's median paired
# ratio is past that metric's bound (25 %; 10 % for alloc_mb_per_op),
# when a run fails or reports wrong output, or when the change fails a
# larger share of ops. The old root-benchmark pairs map onto the
# workloads: FrequencySweep onto sweep, PopulationStudy onto fleet,
# EPIProfile onto served. A run takes ~39 min on a 2-vCPU host.
bench-ab:
	$(GO) run ./cmd/benchab $(BASE)

# profile captures CPU profiles of the FrequencySweep pair — the
# serial lane-per-run path and the parallel lockstep-lane path, whose
# eight points split into batches of ceil(8/workers) lanes — of
# ResonanceDiscovery, whose coarse round runs 4-lane batches and whose
# refinement rounds run width-1 steps (pprof's stepBlocks vs
# stepScalar split), and of a 16-lane core.BatchSession with a
# distinct workload per core, the shape the sweep workload runs, into
# results/, along with the test binaries pprof needs to symbolize them.
# Inspect with: go tool pprof results/profile.test results/freqsweep_parallel.pprof
#          and: go tool pprof results/core.test results/session16.pprof
profile:
	mkdir -p results
	$(GO) test -run NONE -bench 'FrequencySweepSerial$$' -benchtime 3x \
		-cpuprofile results/freqsweep_serial.pprof -o results/profile.test .
	$(GO) test -run NONE -bench 'FrequencySweepParallel$$' -benchtime 3x \
		-cpuprofile results/freqsweep_parallel.pprof -o results/profile.test .
	$(GO) test -run NONE -bench 'ResonanceDiscovery$$' -benchtime 5x \
		-cpuprofile results/resonance.pprof -o results/profile.test .
	$(GO) test -run NONE -bench 'BatchSessionRun/Lanes16/distinct$$' -benchtime 3s \
		-cpuprofile results/session16.pprof -o results/core.test ./internal/core
	@echo "profiles in results/: freqsweep_serial.pprof freqsweep_parallel.pprof resonance.pprof session16.pprof"

# run-service starts the voltnoised characterization service; stop it
# with SIGINT/SIGTERM for a graceful queue drain.
run-service:
	$(GO) run ./cmd/voltnoised serve -addr :8080

# fault runs the durability and fault-injection suites under the race
# detector: injected store failures and corruption must degrade to
# recomputes (never fail a study), crash recovery must replay
# byte-identical results, and a journaled shutdown must park queued
# jobs for the next start.
fault:
	$(GO) test -race ./internal/service/store/... ./internal/service/journal/
	$(GO) test -race -run 'Fault|Store|Corrupt|Crash|Recovery|Shutdown|Nth' ./internal/service/

# recover-smoke kill -9s a live voltnoised mid-flight and verifies the
# restarted server serves the pre-crash result from disk (X-Cache: hit,
# byte-identical) and re-enqueues journaled unfinished jobs.
recover-smoke:
	./scripts/recover_smoke.sh

# stream-smoke watches a live 1000-chip population job through injected
# connection drops and a kill -9'd watcher, and verifies the SSE stream
# resumes by Last-Event-ID with client-assembled results byte-identical
# to the server blob.
stream-smoke:
	./scripts/stream_smoke.sh

# ci is the full gate: tier-1 plus the race detector over the service
# (always, it is the concurrency hot spot) and the internal packages,
# the fault-injection and durability suites, the fuzz smoke pass, the
# batch determinism suites under -race, the streaming smoke script, the
# module's benchmarks once each, and bench-ab against the merge base with
# main, which fails the gate on a paired end-to-end regression.
ci: tier1
	$(GO) test -race ./internal/service/...
	$(GO) test -race ./internal/...
	$(MAKE) fault
	$(MAKE) fuzz-smoke
	$(MAKE) batch-determinism
	$(MAKE) stream-smoke
	$(MAKE) bench-smoke
	$(MAKE) bench-ab BASE=$$(git merge-base HEAD main)

clean:
	$(GO) clean -testcache
