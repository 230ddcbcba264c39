GO ?= go

.PHONY: all build test generate bench bench-smoke bench-kernel bench-codec bench-path bench-svc bench-xl bench-baseline bench-baseline-codec bench-baseline-path bench-baseline-svc bench-baseline-xl bench-regression sweep sweep-large sweep-xl sweep-churn linkcheck profile profile-floor-xl profile-fanout-xl fig fuzz cover fmt vet repolint lint check clean help

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Regenerate every committed sdlgen package from its .svc spec (the CI
# freshness gate runs this and requires a clean diff; see DESIGN.md §1.8).
generate:
	$(GO) generate ./examples/...

bench:
	$(GO) test -bench . -run XXX .

# One iteration of every benchmark — the CI smoke.
bench-smoke:
	$(GO) test -bench . -benchtime 1x -run XXX ./...

# The kernel benchmark suite at the CI gate's repetition count.
bench-kernel:
	$(GO) test -run XXX -bench . -benchtime 500ms -count 6 ./internal/sim

# The codec benchmark suite at the CI gate's repetition count.
bench-codec:
	$(GO) test -run XXX -bench . -benchtime 500ms -count 6 ./internal/codec

# The end-to-end delivery-path benchmark suite (routing/demux plane) at
# the CI gate's repetition count.
bench-path:
	$(GO) test -run XXX -bench . -benchtime 500ms -count 6 ./internal/delivery

# The service-port façade overhead suite (typed port call vs raw
# platform invoke) at the CI gate's repetition count.
bench-svc:
	$(GO) test -run XXX -bench . -benchtime 500ms -count 6 ./internal/svc

# The XL fan-out suite (federated broker tree vs flat baseline at 65,536
# sinks) at the CI gate's repetition count.
bench-xl:
	$(GO) test -run XXX -bench . -benchtime 500ms -count 6 ./internal/fanout

# Refresh the committed kernel benchmark baseline (commit the result).
bench-baseline:
	$(GO) test -run XXX -bench . -benchtime 500ms -count 6 ./internal/sim | \
		$(GO) run ./cmd/benchcmp -record -out BENCH_kernel.json

# Refresh the committed codec benchmark baseline (commit the result).
bench-baseline-codec:
	$(GO) test -run XXX -bench . -benchtime 500ms -count 6 ./internal/codec | \
		$(GO) run ./cmd/benchcmp -record -out BENCH_codec.json \
			-note "Refresh with: make bench-baseline-codec (see README, Performance & CI gates)."

# Refresh the committed delivery-path benchmark baseline (commit the result).
bench-baseline-path:
	$(GO) test -run XXX -bench . -benchtime 500ms -count 6 ./internal/delivery | \
		$(GO) run ./cmd/benchcmp -record -out BENCH_path.json \
			-note "Refresh with: make bench-baseline-path (see README, Performance & CI gates)."

# Refresh the committed service-port benchmark baseline (commit the result).
bench-baseline-svc:
	$(GO) test -run XXX -bench . -benchtime 500ms -count 6 ./internal/svc | \
		$(GO) run ./cmd/benchcmp -record -out BENCH_svc.json \
			-note "Refresh with: make bench-baseline-svc (see README, Performance & CI gates)."

# Refresh the committed XL fan-out benchmark baseline (commit the result).
bench-baseline-xl:
	$(GO) test -run XXX -bench . -benchtime 500ms -count 6 ./internal/fanout | \
		$(GO) run ./cmd/benchcmp -record -out BENCH_xl.json \
			-note "Refresh with: make bench-baseline-xl (see README, Performance & CI gates)."

# The CI bench-regression gates, locally.
bench-regression:
	$(GO) test -run XXX -bench . -benchtime 500ms -count 6 ./internal/sim | \
		$(GO) run ./cmd/benchcmp -baseline BENCH_kernel.json -threshold 1.20 -normalize Calibrate
	$(GO) test -run XXX -bench . -benchtime 500ms -count 6 ./internal/codec | \
		$(GO) run ./cmd/benchcmp -baseline BENCH_codec.json -threshold 1.20 -normalize Calibrate
	$(GO) test -run XXX -bench . -benchtime 500ms -count 6 ./internal/delivery | \
		$(GO) run ./cmd/benchcmp -baseline BENCH_path.json -threshold 1.20 -normalize Calibrate
	$(GO) test -run XXX -bench . -benchtime 500ms -count 6 ./internal/svc | \
		$(GO) run ./cmd/benchcmp -baseline BENCH_svc.json -threshold 1.20 -normalize Calibrate
	$(GO) test -run XXX -bench . -benchtime 500ms -count 6 ./internal/fanout | \
		$(GO) run ./cmd/benchcmp -baseline BENCH_xl.json -threshold 1.20 -normalize Calibrate

# The CI fuzz job, locally (bounded).
fuzz:
	$(GO) test -fuzz FuzzKernelOrdering -fuzztime 60s -fuzzminimizetime 1s -run XXX ./internal/sim
	$(GO) test -fuzz FuzzCodecRoundTrip -fuzztime 60s -fuzzminimizetime 1s -run XXX ./internal/codec
	$(GO) test -fuzz FuzzSchemaParse -fuzztime 90s -fuzzminimizetime 1s -run XXX ./internal/codec
	$(GO) test -fuzz FuzzSDLRoundTrip -fuzztime 60s -fuzzminimizetime 1s -run XXX ./internal/sdl
	$(GO) test -fuzz FuzzPlatformWire -fuzztime 60s -fuzzminimizetime 1s -run XXX ./internal/middleware
	$(GO) test -fuzz FuzzReliableReceive -fuzztime 60s -fuzzminimizetime 1s -run XXX ./internal/protocol
	$(GO) test -fuzz FuzzFramingReassembly -fuzztime 60s -fuzzminimizetime 1s -run XXX ./internal/protocol
	$(GO) test -fuzz FuzzEntityReceive -fuzztime 60s -fuzzminimizetime 1s -run XXX ./internal/floorcontrol
	$(GO) test -fuzz FuzzBandfileParse -fuzztime 60s -fuzzminimizetime 1s -run XXX ./internal/bandfile
	$(GO) test -fuzz FuzzObserve -fuzztime 60s -fuzzminimizetime 1s -run XXX ./internal/core

# Coverage profile + per-function summary (the CI coverage job).
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

# The default 120-scenario cross-product sweep (table to stdout).
sweep:
	$(GO) run ./cmd/sweep

# The large-client band: every solution at clients {64,128,256},
# loss {0,1}% — the fan-out regime the dense routing plane pays for.
sweep-large:
	$(GO) run ./cmd/sweep -band large

# The million-client band: a 1,048,576-subscriber federated fan-out and
# a 100,000-client floor-control run (see runner.XLBand and
# EXPERIMENTS.md for runtimes). XLSCALE divides the
# populations — CI smoke uses XLSCALE=1024.
XLSCALE ?= 1
sweep-xl:
	$(GO) run ./cmd/sweep -band xl -xlscale $(XLSCALE)

# The crash/restart robustness band: every solution under crash-rate ×
# MTTR × rebind-policy churn, gated on zero safety violations (see
# runner.ChurnBand and DESIGN.md §1.7).
sweep-churn:
	$(GO) run ./cmd/sweep -band churn

# Check every relative link and heading anchor in the top-level docs.
linkcheck:
	$(GO) run ./cmd/linkcheck README.md DESIGN.md EXPERIMENTS.md ROADMAP.md

# CPU + allocation profiles of the full 120-scenario sweep (writes
# cpu.pprof and mem.pprof; inspect with `go tool pprof cpu.pprof`).
profile:
	$(GO) run ./cmd/sweep -quiet -format csv -out /dev/null \
		-cpuprofile cpu.pprof -memprofile mem.pprof
	@echo "wrote cpu.pprof and mem.pprof — inspect with: go tool pprof -top cpu.pprof"

# CPU profile of the XL band's floor-control scenario at 1/16 (6,250
# clients: the shape of perfbench's floor-xl), 20 passes on one
# processor (writes cpu-floor-xl.pprof), and the share of that CPU spent
# in map probes, stores and deletes (the "Showing nodes" line).
profile-floor-xl:
	@mkdir -p bin
	$(GO) test -run XXX -bench BenchmarkXLFloor -benchtime 20x -cpu 1 \
		-cpuprofile cpu-floor-xl.pprof -o bin/repro.test .
	$(GO) tool pprof -top -focus='runtime\.map(access|assign|delete)' \
		bin/repro.test cpu-floor-xl.pprof | sed -n '1,20p'

# CPU profile of the XL band's fan-out scenario at full population
# (1,048,576 sinks on 16,384 nodes: the shape of perfbench's fanout-xl),
# 8 passes on one processor (writes cpu-fanout-xl.pprof), and the
# cumulative share of each repro function under fanout.Run: subscription
# by node id (SubscribeTopicAt), delivery (handleEvent) and the sink's
# metrics. perfbench's traced re-drive subscribes by name, so this is
# where the id path's split is read.
profile-fanout-xl:
	@mkdir -p bin
	$(GO) test -run XXX -bench BenchmarkXLFanout -benchtime 8x -cpu 1 \
		-cpuprofile cpu-fanout-xl.pprof -o bin/repro.test .
	$(GO) tool pprof -top -cum -focus='fanout\.Run' -show='^repro/' \
		bin/repro.test cpu-fanout-xl.pprof | sed -n '1,25p'

# Regenerate every paper figure.
fig:
	$(GO) run ./cmd/benchfig

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...

# The repository's own analyzer suite (see DESIGN.md §1.5): determinism,
# map-iteration-order, pooled-buffer aliasing, and hot-path allocation
# checks. Equivalent to: go vet -vettool=bin/repolint ./...
repolint:
	$(GO) build -o bin/repolint ./cmd/repolint
	./bin/repolint ./...

# The full static-analysis gate: repolint + go vet, plus staticcheck
# when installed (CI always runs it).
lint: repolint vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

check: vet build test
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

clean:
	$(GO) clean ./...
	rm -f benchfig floorctl mdagen sdlc svcverify sweep
	rm -rf bin

help:
	@echo "check            vet + build + test + gofmt (the tier-1 gate)"
	@echo "lint             repolint + vet (+ staticcheck when installed)"
	@echo "repolint         build and run the custom analyzer suite over ./..."
	@echo "test             go test ./..."
	@echo "generate         regenerate sdlgen packages from their .svc specs"
	@echo "bench-smoke      one iteration of every benchmark"
	@echo "bench-regression compare kernel/codec/path/svc/xl benches against baselines"
	@echo "bench-baseline*  refresh a committed benchmark baseline"
	@echo "sweep            the 120-scenario cross-product sweep"
	@echo "sweep-large      the large-client fan-out band"
	@echo "sweep-xl         the million-client band (XLSCALE=n divides populations)"
	@echo "sweep-churn      the crash/restart robustness band (availability + safety gate)"
	@echo "linkcheck        verify relative links + anchors in the top-level docs"
	@echo "profile          CPU+alloc profiles of the full sweep"
	@echo "profile-floor-xl CPU profile of floor-xl's shape + its map-operation share"
	@echo "profile-fanout-xl CPU profile of fanout-xl's shape, split by function under fanout.Run"
	@echo "fuzz             bounded kernel + codec + SDL + middleware-wire + reliable-receive + entity-receive + band-file + observer fuzzing"
	@echo "cover            coverage profile + per-function summary"
	@echo "fig              regenerate every paper figure"
