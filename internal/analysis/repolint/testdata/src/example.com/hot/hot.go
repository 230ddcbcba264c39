// Package hot is golden test data for the hotpathalloc analyzer:
// allocating constructs and string-keyed map probes inside
// //repolint:hotpath functions.
package hot

import "fmt"

//repolint:hotpath
func hotMapLit() map[int]bool {
	return map[int]bool{} // want `alloc: map literal allocates in hot path hotMapLit`
}

//repolint:hotpath
func hotMakeMap() map[int]bool {
	return make(map[int]bool) // want `alloc: make\(map\) allocates in hot path hotMakeMap`
}

//repolint:hotpath
func hotMakeChan() chan int {
	return make(chan int, 1) // want `alloc: make\(chan\) allocates in hot path hotMakeChan`
}

//repolint:hotpath
func hotClosure(x int) func() int {
	f := func() int { return x } // want `alloc: closure literal in hot path hotClosure`
	return f
}

//repolint:hotpath
func hotFmt(x int) string {
	return fmt.Sprint(x) // want `alloc: fmt\.Sprint allocates in hot path hotFmt`
}

//repolint:hotpath
func hotAppend(xs []int) []int {
	var out []int
	for _, x := range xs {
		out = append(out, x) // want `alloc: append into "out", declared in hot path hotAppend without capacity`
	}
	return out
}

// hotAppendSized pre-sizes the destination: append never reallocates on
// the steady-state path, so no diagnostic.
//
//repolint:hotpath
func hotAppendSized(xs []int) []int {
	out := make([]int, 0, len(xs))
	for _, x := range xs {
		out = append(out, x)
	}
	return out
}

// hotAppendParam appends into a caller-provided slice: the caller sized
// it, so no diagnostic.
//
//repolint:hotpath
func hotAppendParam(dst []byte, x byte) []byte {
	return append(dst, x)
}

//repolint:hotpath
func hotBoxReturn(x int) any {
	return x // want `alloc: int value boxed into .* interface allocates in hot path hotBoxReturn`
}

//repolint:hotpath
func hotBoxAssign(x int) {
	var i interface{}
	i = x // want `alloc: int value boxed into .* interface allocates in hot path hotBoxAssign`
	_ = i
}

//repolint:hotpath
func hotBoxConvert(x int) any {
	return any(x) // want `alloc: int value boxed into .* interface allocates in hot path hotBoxConvert`
}

type point struct{ x, y int }

// hotPointer: a pointer fits in the interface word without copying the
// value to the heap, so no diagnostic.
//
//repolint:hotpath
func hotPointer(p *point) any {
	return p
}

//repolint:hotpath
func hotStrMapRead(m map[string]int, k string) int {
	return m[k] // want `strmap: string-keyed map probe in hot path hotStrMapRead`
}

//repolint:hotpath
func hotStrMapCommaOk(m map[string]int, k []byte) bool {
	_, ok := m[string(k)] // want `strmap: string-keyed map probe in hot path hotStrMapCommaOk`
	return ok
}

//repolint:hotpath
func hotStrMapWrite(m map[string]int, k string) {
	m[k]++ // want `strmap: string-keyed map probe in hot path hotStrMapWrite`
}

//repolint:hotpath
func hotStrMapDelete(m map[string]int, k string) {
	delete(m, k) // want `strmap: string-keyed map delete in hot path hotStrMapDelete`
}

type named string

type key struct {
	id   int
	name named
}

// hotStructKey: a struct key holding a string (here a named string type)
// hashes the string all the same.
//
//repolint:hotpath
func hotStructKey(m map[key]bool, k key) bool {
	return m[k] // want `strmap: string-keyed map probe in hot path hotStructKey`
}

//repolint:hotpath
func hotArrayKey(m map[[2]string]bool, k [2]string) bool {
	return m[k] // want `strmap: string-keyed map probe in hot path hotArrayKey`
}

// hotDense: an int-keyed map and a slice indexed by a resolved id hash
// no string, so no diagnostic.
//
//repolint:hotpath
func hotDense(m map[int]string, s []string, id int) string {
	delete(m, id+1)
	return m[id] + s[id]
}

//repolint:hotpath
func hotStrMapAllowed(m map[string]int, k string) int {
	return m[k] //repolint:allow strmap -- golden test of the escape hatch
}

//repolint:hotpath
func hotStrMapWrongAllow(m map[string]int, k string) int {
	return m[k] //repolint:allow alloc -- the wrong check must not mask this; want `strmap: string-keyed map probe`
}

// cold is not annotated: the same constructs are legal here.
func cold(xs []int) []int {
	var out []int
	m := map[int]bool{}
	names := map[string]int{}
	for _, x := range xs {
		out = append(out, x)
		m[x] = true
		names[fmt.Sprint(x)]++
	}
	_ = fmt.Sprint(len(m))
	return out
}

//repolint:hotpath
func hotSuppressed(x int) any {
	return x //repolint:allow alloc -- cold error path; golden test of the escape hatch
}

//repolint:hotpath
func hotWrongAllow(x int) any {
	return x //repolint:allow mapiter -- the wrong check must not mask this; want `alloc: int value boxed`
}
