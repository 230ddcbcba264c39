package sim

// timerHeap is a concrete 4-ary min-heap of timers ordered by (at, seq).
//
// It replaces container/heap to keep the scheduling hot path free of
// interface boxing and indirect calls: push, popMin and remove are direct
// methods over a []*timer slice, specialized for the kernel's composite
// key. A 4-ary layout halves the tree depth of a binary heap, trading a
// few extra comparisons per level for fewer cache-missing levels — the
// right trade for the kernel's pop-heavy workload.
//
// Every move keeps timer.index in sync so TimerRef.Cancel can remove a
// pending timer in O(log₄ n) without searching.
type timerHeap struct {
	a []*timer
}

// timerLess orders by firing instant, then by scheduling sequence so that
// simultaneous events preserve FIFO order.
func timerLess(x, y *timer) bool {
	return x.at < y.at || (x.at == y.at && x.seq < y.seq)
}

func (h *timerHeap) len() int { return len(h.a) }

// min returns the earliest timer. It must not be called on an empty heap.
func (h *timerHeap) min() *timer { return h.a[0] }

//repolint:hotpath
func (h *timerHeap) push(t *timer) {
	t.index = int32(len(h.a))
	h.a = append(h.a, t)
	h.siftUp(len(h.a) - 1)
}

// popMin removes and returns the earliest timer.
//
//repolint:hotpath
func (h *timerHeap) popMin() *timer {
	t := h.a[0]
	n := len(h.a) - 1
	last := h.a[n]
	h.a[n] = nil
	h.a = h.a[:n]
	if n > 0 {
		h.a[0] = last
		last.index = 0
		h.siftDown(0)
	}
	t.index = -1
	return t
}

// remove deletes the timer at heap index i.
//
//repolint:hotpath
func (h *timerHeap) remove(i int) *timer {
	t := h.a[i]
	n := len(h.a) - 1
	last := h.a[n]
	h.a[n] = nil
	h.a = h.a[:n]
	if i < n {
		h.a[i] = last
		last.index = int32(i)
		if !h.siftDown(i) {
			h.siftUp(i)
		}
	}
	t.index = -1
	return t
}

//repolint:hotpath
func (h *timerHeap) siftUp(i int) {
	t := h.a[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !timerLess(t, h.a[p]) {
			break
		}
		h.a[i] = h.a[p]
		h.a[i].index = int32(i)
		i = p
	}
	h.a[i] = t
	t.index = int32(i)
}

// siftDown reports whether the element moved.
//
//repolint:hotpath
func (h *timerHeap) siftDown(i int) bool {
	t := h.a[i]
	n := len(h.a)
	start := i
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if timerLess(h.a[j], h.a[m]) {
				m = j
			}
		}
		if !timerLess(h.a[m], t) {
			break
		}
		h.a[i] = h.a[m]
		h.a[i].index = int32(i)
		i = m
	}
	h.a[i] = t
	t.index = int32(i)
	return i != start
}
