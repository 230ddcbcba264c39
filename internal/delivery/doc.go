// Package delivery holds the end-to-end delivery-path benchmark suite:
// the per-message cost of the routing/demux plane between the sim kernel
// (internal/sim) and the application — network slot routing, protocol
// demultiplexing and the middleware broker fan-out — measured over full
// stacks assembled exactly as the floor-control workloads assemble them.
//
// The benchmarks are a permanent performance surface: cmd/benchcmp
// compares them against the committed BENCH_path.json baseline in the CI
// bench-regression job (±20% geomean, allocation regressions fail).
// Names are load-bearing — renaming one silently drops it from the gate
// until the baseline is refreshed with `make bench-baseline-path`.
//
// This suite measures the root-only (zero-leaf) broker tree at small
// fan-outs (8–64 subscriber nodes, one sink each); the XL fan-out
// regime — the tree with leaf brokers at tens of thousands of sinks —
// has its own suite and baseline in internal/fanout (BENCH_xl.json,
// `make bench-baseline-xl`).
package delivery
