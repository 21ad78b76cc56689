GO ?= go

.PHONY: all build loc vet cross condorlint staticcheck govulncheck lint test race race-serve race-lifecycle race-fleet fleet-repeat serve-repeat benchmark-module fuzz-smoke stream-stress smoke-serve smoke-fleet bench pairs profile-fabric ci

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
# share) end to end, and internal/fifo's ring and burst rendezvous, which
# carry the word-at-a-time oracle, run there too. One byte view goes through
# unsafe and assumes a little-endian target: internal/tensor's LEBytes, the
# float32 ↔ little-endian bytes view that the proto float fields and the
# CNDW weights codec in internal/condorir copy through. Those packages are
# vetted for arm64 and tested on 386 too. (`go vet` on amd64 already runs
# asmdecl over the .s file.)
CROSS_PKGS = ./internal/dataflow/... ./internal/fifo/... ./internal/tensor/... ./internal/proto/... ./internal/condorir/...
cross:
	GOARCH=arm64 $(GO) vet $(CROSS_PKGS)
	GOARCH=386 $(GO) build ./...
	GOARCH=386 $(GO) test $(CROSS_PKGS)

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
# slot, against warm batches on a slot that holds its weights, Device.Close
# against waiting dispatches, and the leak harness's legs
# (goroutines and live heap back at baseline after 50 create/use/close
# cycles per tier). Which side of a release a call lands on depends on
# scheduling, so one green run proves little.
race-lifecycle:
	$(GO) test -race -count=3 -run 'TestTerminateRacesInFlightWork|TestTerminateRacesWarmSlot|TestDeviceClose' ./internal/aws ./internal/sdaccel
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

# fuzz-smoke runs each fuzz target for 10 s: the weights-file, container and
# protobuf wire parsers must turn any byte string into a value or an error,
# never a panic, and allocate at most a small multiple of its length, and so
# must the prototxt text reader on any string; a two-sided burst schedule built from the fuzz bytes must move the words and book
# the totals a word-at-a-time reference FIFO does; the AVX2
# requantizer must give quant.QuantizeInto's code for any float32 bits and scale
# (it skips on a CPU without AVX2). `go test -fuzz` takes
# one target per run, hence one line each. Minimizing a new-coverage input
# grown from a multi-kilobyte seed defaults to 60 s, which would eat the
# whole budget (≈ 10 execs instead of ≈ 100 k); 1 s keeps the smoke fuzzing.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseWeights$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/condorir
	$(GO) test -run '^$$' -fuzz '^FuzzProtoDecode$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/proto
	$(GO) test -run '^$$' -fuzz '^FuzzParseText$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/proto
	$(GO) test -run '^$$' -fuzz '^FuzzReadContainer$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/bitstream
	$(GO) test -run '^$$' -fuzz '^FuzzFIFOHandOff$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/fifo
	$(GO) test -run '^$$' -fuzz '^FuzzQuantizeAVX2$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/dataflow

# stream-stress is the resident-session gate CI runs: the FIFO's burst and
# rendezvous tests (pending burst, waiting buffer; the word oracle and its
# stencil chains run on them), the session-vs-oracle equivalence sweep, and
# the scheduling invariance, worker-panic and goroutine-count tests at
# GOMAXPROCS 1, 2 and 16, all under the race detector, plus the CND024
# static check: a stream FIFO of depth 2 fits one image in flight but not
# two adjacent epochs, so it must pass the plain lint and fail the -batch
# lint. Each -run pattern must name tests that exist (`go test -list`): one
# that matches nothing passes silently.
stream-stress:
	$(GO) test -race -run 'TestHandOff|TestBurst|FuzzFIFOHandOff' ./internal/fifo/
	$(GO) test -race -run 'TestStreaming' -timeout 20m ./internal/dataflow/
	$(GO) test -race -cpu 1,2,16 -run 'TestSessionSchedulingInvariance|TestSessionWorkerPanicIsError|TestSessionGoroutinesPerElement|TestWarmSessionSpawnsNoGoroutines' ./internal/dataflow/
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

# pairs times BENCH (a -bench regex over the root package's benchmarks) at
# the commit BASE and at the working tree in N alternating pairs, the order
# flipped every pair, since the box drifts too much for back-to-back runs to
# compare. BASE is exported with git archive into .pairs/ (git-ignored) and
# both test binaries are built there. For each benchmark it prints every
# pair's ns/op, both medians, the base runs' IQR (linear quartiles) and how
# many pairs the working tree won. A gain counts when it wins at least 9 of
# 10 pairs and the medians lie further apart than the base IQR.
BASE ?= HEAD
BENCH ?= BenchmarkLeNetSession
N ?= 10
pairs:
	rm -rf .pairs && mkdir -p .pairs/base
	git archive $(BASE) | tar -x -C .pairs/base
	cd .pairs/base && $(GO) test -c -o ../base.test .
	$(GO) test -c -o .pairs/head.test .
	@for i in $$(seq 1 $(N)); do \
		if [ $$((i % 2)) = 1 ]; then order="base head"; else order="head base"; fi; \
		for side in $$order; do \
			if [ $$side = base ]; then dir=.pairs/base; else dir=.; fi; \
			(cd $$dir && $(CURDIR)/.pairs/$$side.test -test.run '^$$' -test.bench '$(BENCH)' -test.timeout 10m) | \
				awk -v i=$$i -v side=$$side '/^Benchmark/ && $$4 == "ns/op" { print i, side, $$1, $$3 }'; \
		done; \
	done | tee .pairs/runs.txt | awk '\
		function q(a, n, p,   h, k) { h = (n - 1) * p; k = int(h); return k + 1 < n ? a[k] + (h - k) * (a[k + 1] - a[k]) : a[k] } \
		function sorted(src, n, dst,   i, j, v) { for (i = 0; i < n; i++) { v = src[i]; for (j = i; j > 0 && dst[j - 1] > v; j--) dst[j] = dst[j - 1]; dst[j] = v } } \
		{ if (!($$3 in seen)) { seen[$$3] = 1; names[nn++] = $$3 } v[$$3, $$2, $$1] = $$4; if ($$1 > np) np = $$1 } \
		END { for (b = 0; b < nn; b++) { name = names[b]; print name; wins = 0; \
			for (i = 1; i <= np; i++) { x = v[name, "base", i]; y = v[name, "head", i]; \
				printf "  pair %2d  base %12.0f  head %12.0f ns/op\n", i, x, y; base[i - 1] = x; head[i - 1] = y; if (y < x) wins++ } \
			sorted(base, np, sb); sorted(head, np, sh); mb = q(sb, np, 0.5); mh = q(sh, np, 0.5); \
			printf "  median base %.0f  head %.0f ns/op (%+.1f %%); base IQR %.0f; head wins %d/%d\n", \
				mb, mh, 100 * (mh - mb) / mb, q(sb, np, 0.75) - q(sb, np, 0.25), wins, np } }'

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
# None of it is timed: speed is compared by benchmark/run.sh's paired runs,
# and the paper's tables and the model and kernel digests are exact goldens.
ci: build cross lint race race-lifecycle fleet-repeat serve-repeat benchmark-module fuzz-smoke
