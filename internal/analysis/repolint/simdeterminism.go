package repolint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// Simdeterminism forbids wall-clock time, ambient process randomness,
// and environment reads inside the deterministic packages. Everything
// those packages compute must be a pure function of the scenario
// parameters and the kernel seed — that is what makes the 120-scenario
// sweep CSV byte-identical at any worker count. Simulated time comes
// from sim.Kernel.Now; randomness from the kernel-seeded *rand.Rand.
//
// It also forbids importing sync and sync/atomic there, runner
// excepted: a kernel and everything built on it belong to the one
// goroutine that runs it, and the runner's worker pool is the only
// place goroutines meet.
var Simdeterminism = &analysis.Analyzer{
	Name:     "simdeterminism",
	Doc:      "forbid wall-clock, ambient randomness, env reads and sync imports in deterministic packages (checks: wallclock, globalrand, env, sync)",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runSimdeterminism,
}

// deterministicPkgs are the packages whose outputs feed the
// byte-deterministic sweep. Matched on the import path itself or any
// subpackage of it.
var deterministicPkgs = []string{
	"repro/internal/sim",
	"repro/internal/codec",
	"repro/internal/core",
	"repro/internal/protocol",
	"repro/internal/network",
	"repro/internal/fault",
	"repro/internal/middleware",
	"repro/internal/svc",
	"repro/internal/floorcontrol",
	"repro/internal/mda",
	"repro/internal/runner",
	"repro/internal/metrics",
}

func isDeterministicPkg(path string) bool {
	for _, p := range deterministicPkgs {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// wallclockFuncs are the package time functions that read or depend on
// the process clock. Pure construction and arithmetic (time.Duration,
// time.Unix, ParseDuration, …) stay legal.
var wallclockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// randConstructors are the math/rand and math/rand/v2 package functions
// that build an explicitly seeded generator rather than drawing from
// the ambient one; they are the only package-level rand functions the
// deterministic packages may call.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// envFuncs are the os functions that read ambient process environment.
var envFuncs = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true, "ExpandEnv": true,
}

// concurrentPkg is the one deterministic package that may synchronize:
// the runner drives independent scenarios on a worker pool.
const concurrentPkg = "repro/internal/runner"

func runSimdeterminism(pass *analysis.Pass) (any, error) {
	if !isDeterministicPkg(pass.Pkg.Path()) {
		return nil, nil
	}
	allows := CollectAllows(pass)
	if pass.Pkg.Path() != concurrentPkg {
		for _, f := range pass.Files {
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if (path == "sync" || path == "sync/atomic") && !isTestFile(pass.Fset, imp.Pos()) {
					allows.Report(pass, imp.Pos(), "sync",
						"%s imported in deterministic package %s; a kernel and everything built on it belong to one goroutine, so only the runner synchronizes", path, pass.Pkg.Path())
				}
			}
		}
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.SelectorExpr)(nil)}, func(n ast.Node) {
		sel := n.(*ast.SelectorExpr)
		if isTestFile(pass.Fset, sel.Pos()) {
			return
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return
		}
		if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
			return // methods (e.g. (*rand.Rand).Intn) are fine: the receiver carries the seed
		}
		name := fn.Name()
		switch fn.Pkg().Path() {
		case "time":
			if wallclockFuncs[name] {
				allows.Report(pass, sel.Pos(), "wallclock",
					"time.%s reads the wall clock in deterministic package %s; use the sim kernel clock (sim.Kernel.Now / Schedule)", name, pass.Pkg.Path())
			}
		case "math/rand", "math/rand/v2":
			if !randConstructors[name] {
				allows.Report(pass, sel.Pos(), "globalrand",
					"%s.%s draws from ambient process randomness in deterministic package %s; use the kernel-seeded *rand.Rand (sim.Kernel.Rand)", fn.Pkg().Path(), name, pass.Pkg.Path())
			}
		case "os":
			if envFuncs[name] {
				allows.Report(pass, sel.Pos(), "env",
					"os.%s reads ambient environment in deterministic package %s; thread configuration through scenario parameters", name, pass.Pkg.Path())
			}
		}
	})
	return nil, nil
}
