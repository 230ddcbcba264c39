package middleware

import (
	"fmt"

	"repro/internal/codec"
)

// ErrFederation reports federation misconfiguration (subscribing at a
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
// Subscribers are assigned to leaves by transport endpoint id:
// leaf = low % len(leaves). Over protocol.UnreliableDatagram endpoint
// ids equal network slots, so a subscriber's leaf is its slot residue
// modulo the leaf count; over a name-only transport they are the
// protocol.AsIndexed ids, assigned in attach order.
//
// Per-client subscription state is O(1): one int32 in the leaf's shard
// row, one bit in the topic's membership set, and one demux sink at
// the node — all in amortized-growth slices that are reused for the
// platform's lifetime. Events are forwarded once per subscriber node
// (the membership bit dedups nodes with several sinks); handleEvent
// then demuxes to every matching sink at the node, so EventDeliver
// counts subscriber nodes, not subscriptions, on the federated path.
//
// Federation applies to the pub/sub pattern only; queues stay on the
// root broker. Leaf and root addresses must not themselves Subscribe.
func WithFederation(leaves ...Addr) Option {
	return func(p *Platform) {
		if len(leaves) == 0 {
			return
		}
		p.fed = &federation{
			leaves:  leaves,
			leafIDs: make([]int32, len(leaves)),
			topics:  make(map[string]*fedTopic),
		}
		for i := range p.fed.leafIDs {
			p.fed.leafIDs[i] = -1
		}
	}
}

// federation is the broker tree's root-side state: the leaf table and
// the per-topic shard rows. Guarded by Platform.mu.
type federation struct {
	leaves  []Addr
	leafIDs []int32 // platform node id per leaf, -1 until attached
	topics  map[string]*fedTopic
}

// fedTopic is one topic's federated subscriber table: a dense row of
// subscriber-node transport ids per leaf, plus a membership bitset
// that dedups nodes carrying several sinks. Rows grow amortized and
// are never rebuilt — per-client cost is one int32 and one bit.
type fedTopic struct {
	shards [][]int32 // leaf index → subscriber node lows, enrolment order
	member []uint64  // bitset over transport lows
	nodes  uint64    // enrolled subscriber nodes across all leaves
}

// enroll adds a subscriber node (by transport low id) to the topic,
// returning its leaf index. Idempotent per node: re-enrolment of a
// node already in a shard row is a bit test.
func (ft *fedTopic) enroll(low int32, leaves int) int {
	li := int(low) % leaves
	w, b := int(low)>>6, uint(low)&63
	for w >= len(ft.member) {
		ft.member = append(ft.member, 0)
	}
	if ft.member[w]&(1<<b) == 0 {
		ft.member[w] |= 1 << b
		ft.shards[li] = append(ft.shards[li], low)
		ft.nodes++
	}
	return li
}

// leafIndexOfLocked reports which leaf (if any) the platform node id
// belongs to. Caller holds p.mu. The leaf table is small (a handful of
// leaves), so a linear scan beats any index.
func (p *Platform) leafIndexOfLocked(nodeID int32) int {
	if p.fed == nil {
		return -1
	}
	for i, id := range p.fed.leafIDs {
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

// fedSubscribe is the federated half of subscribeTopic: the subscriber
// node is enrolled in its leaf's dense shard row (O(1) state) and the
// sink joins the node's demux table.
func (p *Platform) fedSubscribe(topic string, node Addr, sink eventSink) error {
	if node == p.broker {
		return fmt.Errorf("%w: %q is the root broker; it cannot subscribe", ErrFederation, node)
	}
	for _, leaf := range p.fed.leaves {
		if node == leaf {
			return fmt.Errorf("%w: %q is a leaf broker; it cannot subscribe", ErrFederation, node)
		}
	}
	nodeID, err := p.ensureRuntime(node)
	if err != nil {
		return err
	}
	if _, err := p.ensureRuntime(p.broker); err != nil {
		return err
	}
	p.mu.Lock()
	ft := p.fed.topics[topic]
	if ft == nil {
		ft = &fedTopic{shards: make([][]int32, len(p.fed.leaves))}
		p.fed.topics[topic] = ft
	}
	li := ft.enroll(p.nodeLows[nodeID], len(p.fed.leaves))
	leaf := p.fed.leaves[li]
	p.eventSinks[nodeID] = append(p.eventSinks[nodeID], sink)
	p.mu.Unlock()
	// The leaf runtime must be live before the first publish reaches it.
	if _, err := p.ensureRuntime(leaf); err != nil {
		return err
	}
	return nil
}

// fedPublish is the root half of the federated pub/sub hot path: the
// event envelope is re-framed once (raw-splice, exactly as the flat
// broker does) and the single buffer is sent to every leaf whose shard
// has subscribers — O(leaves) wire work at the root regardless of
// subscriber population.
func (p *Platform) fedPublish(v *codec.MsgView) {
	topic, _ := v.Str("topic")
	p.mu.Lock()
	ft := p.fed.topics[string(topic)]
	if ft == nil || ft.nodes == 0 {
		p.mu.Unlock()
		return
	}
	fromLow := p.brokerLowLocked()
	p.mu.Unlock()
	rawName, ok := v.Raw("name")
	if !ok {
		rawName = codec.RawNil
	}
	rawFields, ok := v.Raw("fields")
	if !ok {
		rawFields = codec.RawNil
	}
	rawTopic, ok := v.Raw("topic")
	if !ok {
		rawTopic = codec.RawNil
	}
	buf := codec.GetBuffer()
	e := schemaEvent.Encoder(buf.B[:0])
	e.Raw("fields", rawFields)
	e.Raw("name", rawName)
	e.Raw("topic", rawTopic)
	data, err := e.Finish()
	if err != nil {
		buf.Release()
		return
	}
	for li := range p.fed.leaves {
		p.mu.Lock()
		empty := len(ft.shards[li]) == 0
		var leafLow int32 = -1
		if id := p.fed.leafIDs[li]; !empty && id >= 0 {
			leafLow = p.nodeLows[id]
		}
		p.mu.Unlock()
		if empty {
			continue
		}
		//nolint:errcheck // event delivery failure = event loss, acceptable for pub/sub sim
		_ = p.sendData(fromLow, leafLow, data)
	}
	buf.B = data
	buf.Release()
}

// fedForward is the leaf half of the hot path: an event arriving at a
// leaf broker is re-sent verbatim — the received wire bytes, no parse
// beyond the topic probe, no re-encode — to the leaf's dense shard row
// through the transport's indexed fan-out. Legal because the
// LowerService.Send contract copies synchronously, so the pooled
// delivery buffer the bytes alias is free to recycle afterwards.
//
//repolint:hotpath
func (p *Platform) fedForward(li int32, v *codec.MsgView, data []byte) {
	topic, _ := v.Str("topic")
	p.mu.Lock()
	ft := p.fed.topics[string(topic)]
	var row []int32
	if ft != nil {
		row = ft.shards[li]
	}
	if len(row) == 0 {
		p.mu.Unlock()
		return
	}
	p.stats.EventDeliver += uint64(len(row))
	p.stats.WireMessages += uint64(len(row))
	p.stats.WireBytes += uint64(len(row)) * uint64(len(data))
	leafLow := p.nodeLows[p.fed.leafIDs[li]]
	p.mu.Unlock()
	//nolint:errcheck // event delivery failure = event loss, acceptable for pub/sub sim
	_ = p.transport.SendMultiIndexed(leafLow, row, data)
}
