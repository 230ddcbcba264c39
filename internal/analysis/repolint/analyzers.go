package repolint

import "golang.org/x/tools/go/analysis"

// All returns the full repolint suite in the order cmd/repolint runs
// it. The slice is freshly allocated; callers may append.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Simdeterminism,
		Mapiter,
		Poolalias,
		Hotpathalloc,
		Allowcheck,
	}
}
