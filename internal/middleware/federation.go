package middleware

import (
	"fmt"
)

// ErrFederation reports broker-tree misconfiguration (subscribing at a
// broker address).
var ErrFederation = fmt.Errorf("middleware: federation")

// Option configures a Platform at construction time.
type Option func(*Platform)

// WithFederation federates the platform's pub/sub broker into a
// two-level tree: the broker address passed to New becomes the root,
// and each leaf address owns a dense shard of subscriber nodes. A
// published event travels publisher→root once, root→leaf once per
// non-empty leaf, and leaf→subscribers over the transport's indexed
// fan-out (SendMultiIndexed) — the leaf re-sends the received event
// bytes verbatim, so the event is encoded exactly once at the root no
// matter how many million subscribers it reaches.
//
// Without leaves the tree has zero leaves: the root owns the topic's
// single row of subscriber nodes and fans events out to it itself. The
// topology is an execution parameter only — every sink observes the
// same deliveries either way.
//
// Subscribers are assigned to leaves by transport endpoint id:
// leaf = low % len(leaves). Over protocol.UnreliableDatagram endpoint
// ids equal network slots, so a subscriber's leaf is its slot residue
// modulo the leaf count; over a name-only transport they are the
// protocol.AsIndexed ids, assigned in attach order.
//
// Federation applies to the pub/sub pattern only; queues stay on the
// root broker.
func WithFederation(leaves ...Addr) Option {
	return func(p *Platform) {
		p.leaves = leaves
		p.leafIDs = make([]int32, len(leaves))
		for i := range p.leafIDs {
			p.leafIDs[i] = -1
		}
	}
}

// topicTable is one topic's subscriber table on the broker tree: a
// dense row of subscriber-node transport ids per leaf (the root's
// single row on a zero-leaf tree), plus a membership bitset that dedups
// nodes carrying several sinks — events are forwarded once per
// subscriber node, and handleEvent demuxes them to every co-located
// sink. Rows grow amortized and are never rebuilt: per-client state is
// one int32 in a row, one bit in the set, and one demux sink at the
// node. Guarded by Platform.mu.
type topicTable struct {
	rows   [][]int32 // row index → subscriber node lows, enrolment order
	member []uint64  // bitset over transport lows
}

// enroll adds a subscriber node (by transport low id) to row li of the
// topic. Idempotent per node: re-enrolment of a node already in a row
// is a bit test.
func (tt *topicTable) enroll(low int32, li int) {
	w, b := int(low)>>6, uint(low)&63
	for w >= len(tt.member) {
		tt.member = append(tt.member, 0)
	}
	if tt.member[w]&(1<<b) == 0 {
		tt.member[w] |= 1 << b
		tt.rows[li] = append(tt.rows[li], low)
	}
}

// leafIndexOfLocked reports which leaf (if any) the platform node id
// belongs to. Caller holds p.mu. The leaf table is small (a handful of
// leaves), so a linear scan beats any index.
func (p *Platform) leafIndexOfLocked(nodeID int32) int {
	for i, id := range p.leafIDs {
		if id == nodeID {
			return i
		}
	}
	return -1
}

// AttachRuntime eagerly attaches the platform runtime at node and
// returns its transport endpoint id.
// Attachment normally happens lazily on first use; XL deployments call
// this to pin attach order — and therefore transport endpoint ids and
// leaf assignment — before traffic starts.
func (p *Platform) AttachRuntime(node Addr) (int32, error) {
	id, err := p.ensureRuntime(node)
	if err != nil {
		return -1, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.nodeLows[id], nil
}
