// Package repolint is a suite of golang.org/x/tools/go/analysis analyzers
// that enforce this repository's determinism, aliasing, and hot-path
// invariants at compile time. Every result the reproduction publishes
// rests on invariants that used to be enforced only at runtime — the
// sweep-CSV byte-determinism check, the pooled-buffer aliasing contracts
// of DESIGN.md §1.2–1.3, and the 0-alloc hot paths gated by benchcmp.
// These analyzers turn violations of those contracts into `go vet`-time
// errors with source locations.
//
// The suite (see DESIGN.md §1.5 for the full contract of each):
//
//   - simdeterminism — in the deterministic packages (sim, protocol,
//     network, middleware, svc, floorcontrol, mda, runner, metrics),
//     forbid wall-clock time, ambient process randomness, and
//     environment reads. Checks: wallclock, globalrand, env.
//   - mapiter — flag a `range` over a map whose body feeds
//     order-sensitive output (slice appends, float accumulation,
//     writes, channel sends, a return whose results mention the range
//     key or value) with no subsequent sort. Check: mapiter.
//   - poolalias — enforce the borrowed-buffer aliasing contracts: a
//     []byte received through network.Handler, protocol.Receiver, the
//     op parameter of a middleware.Object dispatch, or a codec.MsgView
//     accessor must not be retained; every codec.GetBuffer must be
//     released or handed off. Checks: poolalias, bufleak.
//   - hotpathalloc — in functions annotated //repolint:hotpath, reject
//     allocating constructs (closures, fmt, interface boxing, map
//     literals, un-presized appends into fresh slices). Check: alloc.
//   - allowcheck — validate the //repolint: directives themselves:
//     unknown check names, empty allow lists, misplaced hotpath
//     annotations. Check: allowdecl.
//
// # Directive grammar
//
// Two comment directives, both line comments beginning exactly with
// "//repolint:" (no space before "repolint"):
//
//	//repolint:allow <check> [<check>...] [-- reason]
//	//repolint:hotpath [reason]
//
// An allow directive suppresses the named checks' diagnostics on the
// line the comment sits on (trailing comment) and, when the comment
// stands alone on its line, on the line immediately below it. Nothing
// else: an allow two lines up does not apply. The optional free-text
// reason after " -- " is for the reader; analyzers ignore it.
//
// A hotpath directive is only meaningful in the doc comment of a
// function or method declaration; it opts that function into the
// hotpathalloc checks.
package repolint
