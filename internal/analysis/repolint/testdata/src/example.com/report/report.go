// Package report is golden test data for the mapiter analyzer: range
// over a map feeding ordered output (slice appends, float/string
// accumulation, writes, prints, channel sends, first-match returns)
// without a subsequent sort.
package report

import (
	"fmt"
	"sort"
	"strings"
)

func badAppend(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want `mapiter: append to "out" inside a map range`
	}
	return out
}

// goodSortedAfter is the sanctioned collect-then-sort idiom: the append
// inside the range is forgiven because the slice is sorted afterwards.
func goodSortedAfter(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func badFloat(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want `mapiter: float accumulation into "sum"`
	}
	return sum
}

func badString(m map[string]string) string {
	s := ""
	for _, v := range m {
		s += v // want `mapiter: string accumulation into "s"`
	}
	return s
}

// goodInt: integer accumulation commutes exactly, so iteration order
// cannot change the result.
func goodInt(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// goodLocal: a per-iteration accumulator is scoped to one key and
// order-safe.
func goodLocal(m map[string]float64) {
	for _, v := range m {
		x := 0.0
		x += v
		_ = x
	}
}

func badPrint(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want `mapiter: fmt\.Println inside a map range`
	}
}

func badWrite(m map[string]int, sb *strings.Builder) {
	for k := range m {
		sb.WriteString(k) // want `mapiter: WriteString call inside a map range`
	}
}

func badSend(m map[string]int, ch chan int) {
	for _, v := range m {
		ch <- v // want `mapiter: channel send inside a map range`
	}
}

// goodSlice: ranging a slice is ordered; only map ranges are flagged.
func goodSlice(xs []int, ch chan int) {
	for _, v := range xs {
		ch <- v
	}
}

func suppressed(m map[string]int) {
	for k := range m {
		fmt.Println(k) //repolint:allow mapiter -- order is irrelevant in this debug dump
	}
}

func badFirstMatchKey(m map[string]int) string {
	for k, n := range m {
		if n > 0 {
			return fmt.Sprintf("key %q pending", k) // want `mapiter: return inside a map range selects the first match`
		}
	}
	return ""
}

func badFirstMatchValue(m map[string]error) error {
	for _, err := range m {
		if err != nil {
			return err // want `mapiter: return inside a map range selects the first match`
		}
	}
	return nil
}

// goodAnyMatch: a result that does not depend on which entry matched is
// the same whatever the iteration order.
func goodAnyMatch(m map[string]int) bool {
	for _, n := range m {
		if n > 0 {
			return true
		}
	}
	return false
}

// goodMinKey tracks the smallest matching key instead of returning the
// first one, and returns after the loop.
func goodMinKey(m map[string]int) (string, bool) {
	least, found := "", false
	for k, n := range m {
		if n > 0 && (!found || k < least) {
			least, found = k, true
		}
	}
	return least, found
}

// goodClosureReturn: a return inside a function literal leaves the
// literal, not the loop.
func goodClosureReturn(m map[string]int, visit func(func() string)) {
	for k := range m {
		visit(func() string { return k })
	}
}
