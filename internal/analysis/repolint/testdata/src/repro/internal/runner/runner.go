// Package runner is golden test data for the simdeterminism sync check:
// the runner is the one deterministic package whose worker pool may
// synchronize, so its sync imports draw no diagnostics.
package runner

import (
	"sync"
	"sync/atomic"
)

// workers drains n jobs on k goroutines.
func workers(n, k int, job func(int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < k; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				job(i)
			}
		}()
	}
	wg.Wait()
}
