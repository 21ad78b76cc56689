GO ?= go

.PHONY: all build loc vet cross condorlint staticcheck govulncheck lint test race race-serve race-lifecycle race-fleet fleet-repeat serve-repeat benchmark-module fuzz-smoke stream-stress smoke-serve smoke-fleet bench bench-fabric bench-algo bench-check profile-fabric ci

all: build lint test

build:
	$(GO) build ./...

# loc prints non-test (Go and assembly) and test Go lines per package (root,
# benchmark/, internal/*, cmd/*): the trajectory of ROADMAP aim 2, "same
# behaviour from the least code". CI prints it with every build.
loc:
	@printf '%-28s %9s %9s\n' package non-test test
	@for d in . benchmark internal/* cmd/*; do \
		nt=$$(find $$d -maxdepth 1 \( -name '*.go' ! -name '*_test.go' -o -name '*.s' \) -exec cat {} + | wc -l); \
		t=$$(find $$d -maxdepth 1 -name '*_test.go' -exec cat {} + | wc -l); \
		printf '%-28s %9d %9d\n' $$d $$nt $$t; \
	done

vet:
	$(GO) vet ./...

# cross keeps the portable paths compiling and running: internal/dataflow's
# convolution tiles, FC kernels and max-pool kernels (float32 and int8) are
# amd64 assembly, and every other architecture runs the Go kernels. A 386
# binary runs natively on an amd64 host, so the 386 test run executes those
# Go kernels (the conv and FC tiles and the max-pool loop both element types
# share) end to end. internal/fifo views packed words as int8 codes through
# unsafe, which assumes a little-endian target: it is vetted for arm64 and
# tested on 386 too. (`go vet` on amd64 already runs asmdecl over the .s
# file.)
cross:
	GOARCH=arm64 $(GO) vet ./internal/dataflow/... ./internal/fifo/...
	GOARCH=386 $(GO) build ./...
	GOARCH=386 $(GO) test ./internal/dataflow/... ./internal/fifo/...

# condorlint runs the repository's custom static analyzers — fifodiscard,
# shapecompare, copylocks, httptimeout, plus the v2 concurrency suite
# (goleak, lockorder, atomiccounter, ctxdeadline) — over the whole tree.
condorlint:
	$(GO) run ./cmd/condorlint ./...

# staticcheck / govulncheck are third-party tools CI installs at pinned
# versions; locally they run only if already on PATH (the build itself
# stays zero-dependency).
staticcheck:
	@command -v staticcheck >/dev/null 2>&1 && staticcheck ./... \
		|| echo "staticcheck not installed; skipping (CI runs it pinned)"

govulncheck:
	@command -v govulncheck >/dev/null 2>&1 && govulncheck ./... \
		|| echo "govulncheck not installed; skipping (CI runs it pinned)"

lint: vet condorlint staticcheck govulncheck

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-serve focuses the race detector on the serving tier and its
# root-package stress gate (64 concurrent clients, mixed backend pool).
race-serve:
	$(GO) test -race ./internal/serve/...
	$(GO) test -race -run 'TestServe|TestDeployLocalUnique' .

# race-lifecycle runs the release paths three times under the race detector:
# TerminateInstances against in-flight ExecuteInference/LoadFpgaImage on one
# slot, Device.Close against waiting dispatches, and the leak harness's legs
# (goroutines and live heap back at baseline after 50 create/use/close
# cycles per tier). Which side of a release a call lands on depends on
# scheduling, so one green run proves little.
race-lifecycle:
	$(GO) test -race -count=3 -run 'TestTerminateRacesInFlightWork|TestDeviceClose' ./internal/aws ./internal/sdaccel
	$(GO) test -race -count=3 -run 'TestLifecycle' .

# race-fleet focuses the race detector on the fleet tier, including the
# saturation-shedding and node-kill stress tests.
race-fleet:
	$(GO) test -race ./internal/fleet/... ./internal/loadgen/...

# fleet-repeat runs the fleet tests twenty times: which node owns a key
# depends on the ports the stub nodes get, so one green run proves little.
fleet-repeat:
	$(GO) test -count=20 ./internal/fleet

# serve-repeat runs the serving tests twenty times under the race detector:
# the admission and dispatch paths race on how goroutines are scheduled, so
# one green run proves little.
serve-repeat:
	$(GO) test -race -count=20 ./internal/serve

# benchmark-module vets and tests benchmark/, a module of its own that
# `./...` does not reach: an internal/ API it uses can only break here.
benchmark-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# fuzz-smoke runs each fuzz target for 10 s: the weights-file and container
# parsers must turn any byte string into a value or an error, never a panic,
# and allocate at most a small multiple of its length; the packed-frame
# decode must turn any words into a frame or a short count, never a panic. `go test -fuzz` takes
# one target per run, hence one line each. Minimizing a new-coverage input
# grown from a multi-kilobyte seed defaults to 60 s, which would eat the
# whole budget (≈ 10 execs instead of ≈ 100 k); 1 s keeps the smoke fuzzing.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseWeights$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/condorir
	$(GO) test -run '^$$' -fuzz '^FuzzReadContainer$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/bitstream
	$(GO) test -run '^$$' -fuzz '^FuzzPackedFrame$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/fifo

# stream-stress is the continuous-streaming fabric gate CI runs: the frame
# protocol unit tests, the epoch-framing equivalence sweep and the
# two-epochs-in-flight saturation test under the race detector, plus the
# CND024 static check — an undersized stream FIFO depth must pass the plain
# lint and fail the -batch lint.
stream-stress:
	$(GO) test -race -run 'TestFrame|TestEpoch|TestMarkEpoch|TestResetStats' ./internal/fifo/
	$(GO) test -race -run 'TestStreaming' -timeout 20m ./internal/dataflow/
	@if $(GO) run ./cmd/condor lint -model tc1 -batch -fifo-depth 2 >/dev/null 2>&1; then \
		echo "undersized streaming FIFO depth passed -batch lint"; exit 1; fi
	$(GO) run ./cmd/condor lint -model tc1 -fifo-depth 2 -q
	$(GO) run ./cmd/condor lint -model tc1 -batch -q

# smoke-serve boots awsmock and condor-serve, then probes one inference
# round over HTTP (the same step CI runs). The wait polls /readyz: /healthz
# answers 200 while the pool is still warming (listen-early).
smoke-serve:
	$(GO) build -o bin/ ./cmd/awsmock ./cmd/condor-serve
	./bin/awsmock -addr 127.0.0.1:8780 -afi-delay 100ms -fail-rate 0.05 & echo $$! > .awsmock.pid
	./bin/condor-serve -addr 127.0.0.1:8781 -model tc1 -local 1 -cus 2 \
		-endpoint http://127.0.0.1:8780 -instance-type f1.4xlarge -slots 2 & echo $$! > .serve.pid
	for i in $$(seq 1 50); do curl -fs http://127.0.0.1:8781/readyz >/dev/null 2>&1 && break; sleep 0.2; done
	./bin/condor-serve -probe http://127.0.0.1:8781
	curl -fs http://127.0.0.1:8781/readyz >/dev/null
	kill $$(cat .serve.pid .awsmock.pid); rm -f .serve.pid .awsmock.pid

# smoke-fleet boots a router plus two self-registering condor-serve nodes
# and drives them with the open-loop generator (the CI loadgen-smoke job).
# condor-loadgen exits non-zero if any request falls outside the five
# outcome classes — the zero-silent-drop gate.
smoke-fleet:
	$(GO) build -o bin/ ./cmd/condor-fleet ./cmd/condor-serve ./cmd/condor-loadgen
	./bin/condor-fleet -addr 127.0.0.1:8790 -probe-interval 200ms & echo $$! > .fleet.pid
	./bin/condor-serve -addr 127.0.0.1:8781 -model tc1 -local 1 -cus 2 \
		-fleet http://127.0.0.1:8790 & echo $$! > .node1.pid
	./bin/condor-serve -addr 127.0.0.1:8782 -model tc1 -local 1 -cus 2 \
		-fleet http://127.0.0.1:8790 & echo $$! > .node2.pid
	for i in $$(seq 1 50); do curl -fs http://127.0.0.1:8790/readyz >/dev/null 2>&1 && break; sleep 0.2; done
	./bin/condor-loadgen -target http://127.0.0.1:8790 -rate 100 -duration 3s \
		-deadline-ms 500 -high-frac 0.5 -json loadgen.json
	grep -q '^  "errors": 0' loadgen.json
	curl -fs http://127.0.0.1:8790/metricsz | grep -q '^condor_fleet_requests_total'
	kill $$(cat .node1.pid .node2.pid .fleet.pid); rm -f .node1.pid .node2.pid .fleet.pid

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-fabric runs the streaming-datapath microbenchmarks (including the
# compute-unit replication legs) across both fabric numeric formats and
# writes the machine-readable results CI uploads as an artifact. The
# /dtype=int8 legs exercise the packed 4-lane datapath; benchdiff derives
# and gates the int8-over-float32 speedup ratio from the paired rows.
bench-fabric:
	$(GO) run ./cmd/condor-bench -json BENCH_fabric.json -cus 1,2 -dtype float32,int8

# bench-algo times the host kernels behind the per-layer convolution
# algorithms (direct and Winograd F(2,3); im2col_gemm runs the direct kernel
# on both datapaths, so it has no leg) on the two LeNet-class single-conv
# workloads, per dtype. The same legs ride bench-fabric's JSON, where
# benchdiff gates the derived winograd_speedup_x rows.
bench-algo:
	$(GO) test -run '^$$' -bench 'BenchmarkFabricThroughput/conv' -benchtime 20x .

# bench-check is the throughput-regression gate: regenerate the fabric
# microbenchmarks and diff them against the committed baseline, failing on a
# >25% drop — then the tighter utilization gate diffs only the derived
# pipeline_efficiency rows (measured batch=8/batch=1 speedup over the
# modeled host steady-state speedup), failing on a >10% drop. Refresh the
# baseline with
# `go run ./cmd/condor-bench -json BENCH_baseline.json -cus 1,2 -dtype float32,int8`
# on a quiet machine (the -cus/-dtype legs must match the baseline's rows, or
# the gate errors on the missing benchmark). The third gate diffs a ratio
# whose denominator is the algo=direct leg, so it can fire on an improvement
# to direct with no change to the Winograd path: PR 21 (int8) and PR 24
# (float32) each made direct faster and regenerated the baseline for that
# reason, not because anything slowed. Since PR 24 both datapaths run one
# host kernel for direct and im2col_gemm — a gemm_speedup_x row would read
# ≈ 1.0 by construction — so the sweeps carry no gemm leg and the gate is
# winograd_speedup_x alone.
bench-check: bench-fabric
	$(GO) run ./cmd/benchdiff -baseline BENCH_baseline.json -current BENCH_fabric.json -max-regression 0.25
	$(GO) run ./cmd/benchdiff -baseline BENCH_baseline.json -current BENCH_fabric.json -only pipeline_efficiency -max-regression 0.10
	$(GO) run ./cmd/benchdiff -baseline BENCH_baseline.json -current BENCH_fabric.json -only winograd_speedup_x -max-regression 0.25

# profile-fabric captures a CPU profile of a warm LeNet session in the shape
# of the benchmark's fabric-lenet-f32 workload (BenchmarkLeNetSession/float32;
# PROFILE_LEG=int8 profiles fabric-lenet-int8-gemm's shape instead); inspect
# it with `go tool pprof fabric.cpu.prof`.
PROFILE_LEG ?= float32
profile-fabric:
	$(GO) test -run '^$$' -bench 'BenchmarkLeNetSession/$(PROFILE_LEG)$$' -benchtime 400x \
		-cpuprofile fabric.cpu.prof -o fabric.bench.test .
	$(GO) tool pprof -top -nodecount=15 fabric.cpu.prof

# ci is the full gate the workflow runs: build, the cross-architecture
# build, both linters, the race detector over the test suite, the repeated
# lifecycle, fleet and serve runs, the nested benchmark module and the parser fuzz smoke.
ci: build cross lint race race-lifecycle fleet-repeat serve-repeat benchmark-module fuzz-smoke
