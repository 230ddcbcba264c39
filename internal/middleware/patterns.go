package middleware

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/codec"
)

// Compiled wire-message schemas of the implicit protocol. Encoding
// through them appends straight into pooled scratch buffers — no field
// map is built and no key sorting happens per message. Field order in
// the encode calls below is the canonical (sorted) order the schemas
// enforce; the bytes are identical to the legacy AppendMessage path.
var (
	schemaCall     = codec.CompileSchema("mw.call", "args", "id", "op", "target")
	schemaOneway   = codec.CompileSchema("mw.oneway", "args", "op", "target")
	schemaReplyOK  = codec.CompileSchema("mw.reply", "id", "result")
	schemaReplyErr = codec.CompileSchema("mw.reply", "error", "id")
	schemaEnqueue  = codec.CompileSchema("mw.enqueue", "fields", "name", "queue")
	schemaDeliver  = codec.CompileSchema("mw.deliver", "fields", "name", "queue")
	schemaPublish  = codec.CompileSchema("mw.publish", "fields", "name", "topic")
	schemaEvent    = codec.CompileSchema("mw.event", "fields", "name", "topic")
)

// finishSend completes an encode into buf and transmits it between two
// transport endpoint ids, recycling the buffer either way.
func (p *Platform) finishSend(buf *codec.Buffer, e *codec.Encoder, from, to int32) error {
	data, err := e.Finish()
	if err != nil {
		buf.Release()
		return fmt.Errorf("middleware: marshal: %w", err)
	}
	sendErr := p.sendData(from, to, data)
	buf.B = data
	buf.Release()
	return sendErr
}

// Invoke performs a request/response interaction (the RPC pattern): the
// operation is marshalled, carried to the object's hosting node by the
// implicit wire protocol, dispatched, and the reply returned to cont. The
// caller's identity is the node it invokes from, matching the paper's
// remote-invocation component middleware of §4.1.
//
// args is the operation's argument record already in wire form — one
// complete encoded record value, as produced by a codec.CompileRecord
// schema's Encoder or by codec.Append on a Record; nil sends the empty
// record. It is spliced into the call message verbatim and copied before
// Invoke returns, so it may live in a pooled buffer.
//
// Invoke is asynchronous in virtual time (the simulation has no blocking);
// cont runs when the reply arrives, or with ErrCallTimeout if the profile
// sets a timeout that expires first. The result view cont receives
// aliases the delivery buffer and is valid only until cont returns.
//
//repolint:hotpath
func (p *Platform) Invoke(from Addr, target ObjRef, op string, args []byte, cont func(codec.MsgView, error)) error {
	if !p.profile.Supports(PatternRPC) {
		return fmt.Errorf("%w: %s on %q", ErrPatternUnsupported, PatternRPC, p.profile.Name) //repolint:allow alloc -- cold: profile lacks RPC
	}
	if cont == nil {
		cont = discardResult
	}
	fromID, err := p.ensureRuntime(from)
	if err != nil {
		return err
	}
	p.mu.Lock()
	reg, ok := p.objects[target]
	if !ok {
		p.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownObject, target) //repolint:allow alloc -- cold: unknown target
	}
	if p.downNodes[reg.nodeID] || p.downNodes[fromID] {
		p.failFastLocked(reg.nodeID, fromID, cont)
		return nil
	}
	p.nextCall++
	id := p.nextCall
	pc := p.getCallLocked()
	pc.id, pc.cont, pc.node, pc.caller = id, cont, reg.nodeID, fromID
	if p.profile.CallTimeout > 0 {
		pc.timer = p.kern.ScheduleFuncRef(p.profile.CallTimeout, pc.onTimeout)
	}
	p.pending[id] = pc
	p.stats.Calls++
	fromLow, toLow := p.nodeLows[fromID], p.nodeLows[reg.nodeID]
	p.mu.Unlock()

	if args == nil {
		args = codec.RawEmptyRecord
	}
	buf := codec.GetBuffer()
	e := schemaCall.Encoder(buf.B[:0])
	e.Raw("args", args)
	e.Uint("id", id)
	e.Str("op", op)
	e.Str("target", string(target))
	if err := p.finishSend(buf, &e, fromLow, toLow); err != nil {
		p.mu.Lock()
		if pc, ok := p.pending[id]; ok {
			pc.timer.Cancel() // zero ref is an inert no-op
			delete(p.pending, id)
			p.putCallLocked(pc)
		}
		p.mu.Unlock()
		return err
	}
	return nil
}

// discardResult is the continuation of calls whose caller passed none.
func discardResult(codec.MsgView, error) {}

// discardReply is the reply continuation of oneway dispatches.
func discardReply([]byte, error) {}

// failFastLocked fails a call whose callee or caller node is down, but
// asynchronously: callers treat a synchronous Invoke error as a
// programming mistake, while ErrUnavailable is an operational outcome
// that belongs on the continuation. The caller's own node being down
// fails the same way — a crashed node cannot transmit, so letting the
// call proceed would leak a request the wire silently drops and a
// pending entry nothing ever resolves. Caller holds p.mu; it is
// released here.
func (p *Platform) failFastLocked(calleeID, callerID int32, cont func(codec.MsgView, error)) {
	down := p.nodeAddrs[calleeID]
	if p.downNodes[callerID] {
		down = p.nodeAddrs[callerID]
	}
	p.stats.Unavailables++
	p.mu.Unlock()
	p.kern.ScheduleFunc(0, func() {
		cont(codec.MsgView{}, fmt.Errorf("%w: %s is down", ErrUnavailable, down))
	})
}

func (p *Platform) onCallTimeout(id uint64) {
	p.mu.Lock()
	pc, ok := p.pending[id]
	var cont func(codec.MsgView, error)
	if ok {
		delete(p.pending, id)
		p.stats.Timeouts++
		cont = pc.cont
		p.putCallLocked(pc)
	}
	p.mu.Unlock()
	if ok {
		cont(codec.MsgView{}, fmt.Errorf("%w: call %d", ErrCallTimeout, id))
	}
}

// InvokeOneway performs fire-and-forget message passing to an object's
// operation: no reply, no delivery confirmation to the caller. args
// follows the Invoke contract (one encoded record value; nil = empty).
func (p *Platform) InvokeOneway(from Addr, target ObjRef, op string, args []byte) error {
	if !p.profile.Supports(PatternOneway) {
		return fmt.Errorf("%w: %s on %q", ErrPatternUnsupported, PatternOneway, p.profile.Name)
	}
	fromID, err := p.ensureRuntime(from)
	if err != nil {
		return err
	}
	p.mu.Lock()
	reg, ok := p.objects[target]
	if !ok {
		p.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownObject, target)
	}
	p.stats.Oneways++
	fromLow, toLow := p.nodeLows[fromID], p.nodeLows[reg.nodeID]
	p.mu.Unlock()
	if args == nil {
		args = codec.RawEmptyRecord
	}
	buf := codec.GetBuffer()
	e := schemaOneway.Encoder(buf.B[:0])
	e.Raw("args", args)
	e.Str("op", op)
	e.Str("target", string(target))
	return p.finishSend(buf, &e, fromLow, toLow)
}

// QueueDeclare creates a named queue at the platform broker.
func (p *Platform) QueueDeclare(name string) error {
	if !p.profile.Supports(PatternQueue) {
		return fmt.Errorf("%w: %s on %q", ErrPatternUnsupported, PatternQueue, p.profile.Name)
	}
	if _, err := p.ensureRuntime(p.broker); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.queues[name]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateQueue, name)
	}
	p.queues[name] = &queueState{}
	return nil
}

// QueuePut enqueues one message: its name and its field record, already
// in wire form under the Invoke argument contract (one encoded record
// value; nil sends the empty record; copied before QueuePut returns).
// The message travels to the broker node on the wire, then onward to one
// consumer (round-robin among subscribers), modelling point-to-point MOM
// semantics.
func (p *Platform) QueuePut(from Addr, queue, name string, fields []byte) error {
	if !p.profile.Supports(PatternQueue) {
		return fmt.Errorf("%w: %s on %q", ErrPatternUnsupported, PatternQueue, p.profile.Name)
	}
	fromID, err := p.ensureRuntime(from)
	if err != nil {
		return err
	}
	p.mu.Lock()
	if _, ok := p.queues[queue]; !ok {
		p.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownQueue, queue)
	}
	p.stats.QueuePuts++
	fromLow, toLow := p.nodeLows[fromID], p.brokerLowLocked()
	p.mu.Unlock()
	if fields == nil {
		fields = codec.RawEmptyRecord
	}
	buf := codec.GetBuffer()
	e := schemaEnqueue.Encoder(buf.B[:0])
	e.Raw("fields", fields)
	e.Str("name", name)
	e.Str("queue", queue)
	return p.finishSend(buf, &e, fromLow, toLow)
}

// QueueSubscribe adds a consumer for a queue. Each message goes to exactly
// one consumer; multiple consumers share the queue round-robin, in
// subscription order, whether or not they share a node. Messages
// put before any subscription are retained and delivered on first
// subscribe. The consumer's node is resolved to dense ids here, once, so
// deliveries walk no tables.
//
// fn receives a codec.MsgView over the mw.deliver envelope (fields
// "queue", "name", "fields") aliasing the delivery buffer: like an RPC
// argument view it is valid only until fn returns.
func (p *Platform) QueueSubscribe(queue string, node Addr, fn func(codec.MsgView)) error {
	if !p.profile.Supports(PatternQueue) {
		return fmt.Errorf("%w: %s on %q", ErrPatternUnsupported, PatternQueue, p.profile.Name)
	}
	if fn == nil {
		return fmt.Errorf("middleware: nil consumer for queue %q", queue)
	}
	nodeID, err := p.ensureRuntime(node)
	if err != nil {
		return err
	}
	if _, err := p.ensureRuntime(p.broker); err != nil {
		return err
	}
	p.mu.Lock()
	q, ok := p.queues[queue]
	if !ok {
		p.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownQueue, queue)
	}
	q.consumers = append(q.consumers, queueConsumer{nodeID: nodeID})
	sinks := p.queueSinks[nodeID]
	i := slices.IndexFunc(sinks, func(s queueSink) bool { return s.queue == queue })
	if i < 0 {
		i = len(sinks)
		sinks = append(sinks, queueSink{queue: queue})
	}
	sinks[i].fns = append(sinks[i].fns, fn)
	p.queueSinks[nodeID] = sinks
	backlog := q.backlog
	q.backlog = nil
	p.mu.Unlock()
	for _, m := range backlog {
		p.deliverQueued(queue, m.name, m.fields)
	}
	return nil
}

// deliverQueued routes one queued message from the broker to the next
// consumer, splicing the encoded field record into mw.deliver verbatim.
// Without a consumer the message joins the queue's backlog as a copy:
// name and fields may alias a delivery buffer.
func (p *Platform) deliverQueued(queue string, name, fields []byte) {
	p.mu.Lock()
	q, ok := p.queues[queue]
	if !ok {
		p.mu.Unlock()
		return
	}
	if len(q.consumers) == 0 {
		q.backlog = append(q.backlog, queuedMsg{
			name:   append([]byte(nil), name...),
			fields: append([]byte(nil), fields...),
		})
		p.mu.Unlock()
		return
	}
	c := q.consumers[q.nextRR%len(q.consumers)]
	q.nextRR++
	p.stats.QueueDeliver++
	fromLow, toLow := p.brokerLowLocked(), p.nodeLows[c.nodeID]
	p.mu.Unlock()
	buf := codec.GetBuffer()
	e := schemaDeliver.Encoder(buf.B[:0])
	e.Raw("fields", fields)
	e.Str("name", string(name))
	e.Str("queue", queue)
	//nolint:errcheck // broker delivery failure = message loss, acceptable for MOM sim
	_ = p.finishSend(buf, &e, fromLow, toLow)
}

// Publish sends a message to every subscriber of a topic (event
// source/sink pattern).
func (p *Platform) Publish(from Addr, topic string, m codec.Message) error {
	if !p.profile.Supports(PatternPubSub) {
		return fmt.Errorf("%w: %s on %q", ErrPatternUnsupported, PatternPubSub, p.profile.Name)
	}
	fromID, err := p.ensureRuntime(from)
	if err != nil {
		return err
	}
	p.mu.Lock()
	p.stats.Publishes++
	fromLow, toLow := p.nodeLows[fromID], p.brokerLowLocked()
	p.mu.Unlock()
	buf := codec.GetBuffer()
	e := schemaPublish.Encoder(buf.B[:0])
	e.Value("fields", m.Fields)
	e.Str("name", m.Name)
	e.Str("topic", topic)
	return p.finishSend(buf, &e, fromLow, toLow)
}

// SubscribeTopicView registers a zero-copy event sink: the sink receives
// a codec.MsgView over the mw.event envelope (fields "topic", "name",
// "fields") aliasing the transport's pooled delivery buffer. The view
// and every byte slice read through it are valid only until the sink
// returns; retain with an explicit copy. This is the demux path with
// zero per-event allocations.
func (p *Platform) SubscribeTopicView(topic string, node Addr, fn func(v codec.MsgView)) error {
	if fn == nil {
		return fmt.Errorf("middleware: nil sink for topic %q", topic)
	}
	return p.subscribeTopic(topic, node, eventSink{topic: topic, fn: fn})
}

// subscribeTopic resolves the subscriber node to dense ids, enrols it
// in its row of the topic's broker-tree table, and appends the sink to
// the node's demux table — the "resolved once at subscribe time" half
// of the pub/sub fast path. Broker addresses (the root, and any leaf)
// cannot subscribe.
func (p *Platform) subscribeTopic(topic string, node Addr, sink eventSink) error {
	if !p.profile.Supports(PatternPubSub) {
		return fmt.Errorf("%w: %s on %q", ErrPatternUnsupported, PatternPubSub, p.profile.Name)
	}
	if node == p.broker {
		return fmt.Errorf("%w: %q is the root broker; it cannot subscribe", ErrFederation, node)
	}
	for _, leaf := range p.leaves {
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
	tt := p.topics[topic]
	if tt == nil {
		tt = &topicTable{rows: make([][]int32, max(1, len(p.leaves)))}
		p.topics[topic] = tt
	}
	low, li := p.nodeLows[nodeID], 0 // the root's row on a zero-leaf tree
	if len(p.leaves) > 0 {
		li = int(low) % len(p.leaves)
	}
	tt.enroll(low, li)
	p.eventSinks[nodeID] = append(p.eventSinks[nodeID], sink)
	p.mu.Unlock()
	if li < len(p.leaves) {
		// The leaf runtime must be live before the first publish reaches it.
		if _, err := p.ensureRuntime(p.leaves[li]); err != nil {
			return err
		}
	}
	return nil
}

// onWire is the platform runtime's receive path at a node, keyed by the
// node's dense id (src is the sender's transport endpoint id).
// The wire bytes alias the transport's pooled delivery buffer, so when
// dispatch overhead defers the work, the bytes are copied into a pooled
// buffer carried by a pooled deferred-dispatch record that lives exactly
// until the deferred handler finishes.
func (p *Platform) onWire(src, atID int32, data []byte) {
	overhead := p.profile.DispatchOverhead
	if overhead > 0 {
		p.mu.Lock()
		d := p.freeDeferred
		if d != nil {
			p.freeDeferred = d.next
			d.next = nil
		} else {
			d = &deferredWire{p: p}
			d.fn = d.run
		}
		p.mu.Unlock()
		d.src, d.atID = src, atID
		buf := codec.GetBuffer()
		buf.B = append(buf.B[:0], data...)
		d.buf = buf
		p.kern.ScheduleFunc(overhead, d.fn)
		return
	}
	p.handleWire(src, atID, data)
}

// handleWire demarshals the implicit protocol through a zero-copy view
// and dispatches per message type. Corrupt wire messages are dropped and
// counted (Stats.Corrupt).
func (p *Platform) handleWire(src, atID int32, data []byte) {
	v, err := codec.ParseMessage(data)
	if err != nil {
		p.countCorrupt()
		return
	}
	switch string(v.Name()) {
	case "mw.call":
		p.handleCall(src, atID, &v)
	case "mw.reply":
		p.handleReply(&v)
	case "mw.oneway":
		p.handleOneway(atID, &v)
	case "mw.enqueue":
		p.handleEnqueue(&v)
	case "mw.deliver":
		p.handleDeliver(atID, &v)
	case "mw.publish":
		p.handlePublish(&v)
	case "mw.event":
		p.handleEvent(atID, &v, data)
	}
}

// countCorrupt records one dropped malformed wire message.
func (p *Platform) countCorrupt() {
	p.mu.Lock()
	p.stats.Corrupt++
	p.mu.Unlock()
}

// lookupLocal finds the object registration for a wire message's target,
// verifying it is hosted at the receiving node (a dense-id compare).
//
//repolint:hotpath
func (p *Platform) lookupLocal(atID int32, v *codec.MsgView) (Object, bool) {
	target, _ := v.Str("target")
	p.mu.Lock()
	reg, ok := p.objects[ObjRef(target)]
	p.mu.Unlock()
	if !ok || reg.nodeID != atID {
		return nil, false
	}
	return reg.obj, true
}

// recordField returns a record field of a wire message — the arguments
// of a call or oneway, the fields of an enqueue — as a view of the
// delivery buffer: it crosses into the consumer borrowed, never
// materialized. A message whose field is not a well-formed canonical
// record is counted corrupt (ok false).
//
//repolint:hotpath
func (p *Platform) recordField(v *codec.MsgView, field string) (codec.MsgView, bool) {
	rec, ok := v.View(field)
	if !ok {
		p.countCorrupt()
	}
	return rec, ok
}

// getReplyCell pops (or creates) a reply cell.
//
//repolint:hotpath
func (p *Platform) getReplyCell() *replyCell {
	p.mu.Lock()
	c := p.freeReply
	if c != nil {
		p.freeReply = c.next
		c.next = nil
	}
	p.mu.Unlock()
	if c == nil {
		c = &replyCell{p: p}
		c.fn = c.respond
	}
	return c
}

// putReplyCell returns a disarmed cell to the pool.
//
//repolint:hotpath
func (p *Platform) putReplyCell(c *replyCell) {
	p.mu.Lock()
	c.next = p.freeReply
	p.freeReply = c
	p.mu.Unlock()
}

// handleCall dispatches one mw.call to its object with a pooled reply
// cell, recycling the cell when the object replied before Dispatch
// returned (the common, synchronous case).
//
//repolint:hotpath
func (p *Platform) handleCall(src, atID int32, v *codec.MsgView) {
	id, _ := v.Uint("id")
	args, ok := p.recordField(v, "args")
	if !ok {
		return
	}
	obj, ok := p.lookupLocal(atID, v)
	if !ok {
		p.mu.Lock()
		at := p.nodeLows[atID]
		p.mu.Unlock()
		p.sendReply(id, at, src, nil, errUnknownAtNode)
		return
	}
	op, _ := v.Str("op")
	c := p.getReplyCell()
	c.id, c.src, c.atID, c.armed = id, src, atID, true
	obj.Dispatch(op, args, c.fn)
	if !c.armed {
		p.putReplyCell(c)
	}
}

// errUnknownAtNode is the remote error of a call whose target is not
// hosted at the receiving node.
var errUnknownAtNode = errors.New("unknown object at node")

// respond is the object's reply continuation: it counts and sends the
// mw.reply of the cell's call, at most once per arming.
//
//repolint:hotpath
func (c *replyCell) respond(result []byte, err error) {
	if !c.armed {
		return // replied already
	}
	c.armed = false
	p := c.p
	p.mu.Lock()
	p.stats.Replies++
	at := p.nodeLows[c.atID]
	p.mu.Unlock()
	p.sendReply(c.id, at, c.src, result, err)
}

// sendReply encodes the mw.reply of call id — the error text, or the
// result record spliced in verbatim (nil = empty record) — and sends it
// from the serving node's transport id (at) back to the caller's (to).
//
//repolint:hotpath
func (p *Platform) sendReply(id uint64, at, to int32, result []byte, err error) {
	buf := codec.GetBuffer()
	if err != nil {
		e := schemaReplyErr.Encoder(buf.B[:0])
		e.Str("error", err.Error())
		e.Uint("id", id)
		_ = p.finishSend(buf, &e, at, to) //nolint:errcheck // reply loss = caller timeout
		return
	}
	if result == nil {
		result = codec.RawEmptyRecord
	}
	e := schemaReplyOK.Encoder(buf.B[:0])
	e.Uint("id", id)
	e.Raw("result", result)
	_ = p.finishSend(buf, &e, at, to) //nolint:errcheck // reply loss = caller timeout
}

// handleReply resolves the pending call a mw.reply answers. The result
// is validated before the pending entry is touched: a malformed reply is
// dropped like a lost one (the call's timeout, if any, still resolves
// it).
//
//repolint:hotpath
func (p *Platform) handleReply(v *codec.MsgView) {
	id, _ := v.Uint("id")
	errText, hasErr := v.Str("error")
	var result codec.MsgView
	if !hasErr {
		var ok bool
		if result, ok = v.View("result"); !ok {
			p.countCorrupt()
			return
		}
	}
	p.mu.Lock()
	pc, ok := p.pending[id]
	var cont func(codec.MsgView, error)
	if ok {
		delete(p.pending, id)
		pc.timer.Cancel() // zero ref is an inert no-op
		cont = pc.cont
		p.putCallLocked(pc)
	}
	p.mu.Unlock()
	if !ok {
		return // late reply after timeout
	}
	if hasErr {
		cont(codec.MsgView{}, fmt.Errorf("%w: %s", ErrRemote, errText)) //repolint:allow alloc -- cold: remote application error
		return
	}
	cont(result, nil)
}

func (p *Platform) handleOneway(atID int32, v *codec.MsgView) {
	args, ok := p.recordField(v, "args")
	if !ok {
		return
	}
	obj, ok := p.lookupLocal(atID, v)
	if !ok {
		return
	}
	op, _ := v.Str("op")
	obj.Dispatch(op, args, discardReply) // replies discarded
}

// handleEnqueue is the broker half of the queue plane: the encoded field
// record is validated, then spliced into the consumer's mw.deliver
// without ever being materialized (as handlePublish does for events).
// An enqueue whose fields are not a record is counted corrupt.
func (p *Platform) handleEnqueue(v *codec.MsgView) {
	if _, ok := p.recordField(v, "fields"); !ok {
		return
	}
	queue, _ := v.Str("queue")
	name, _ := v.Str("name")
	fields, _ := v.Raw("fields")
	p.deliverQueued(string(queue), name, fields)
}

// handleDeliver demultiplexes a queue delivery at the consuming node: the
// node's consumed-queue table is scanned for the queue (nodes consume
// from a handful of queues; the name compare takes Go's pointer-equality
// fast path for interned literals) and the node's consumers of that
// queue take the envelope in turn, in subscription order.
func (p *Platform) handleDeliver(atID int32, v *codec.MsgView) {
	queue, _ := v.Str("queue")
	var fn func(codec.MsgView)
	p.mu.Lock()
	sinks := p.queueSinks[atID]
	for i := range sinks {
		if s := &sinks[i]; s.queue == string(queue) {
			fn = s.fns[s.next%len(s.fns)]
			s.next++
			break
		}
	}
	p.mu.Unlock()
	if fn != nil {
		fn(*v)
	}
}

// handlePublish is the root half of the pub/sub hot path: the event
// envelope is re-framed once as mw.event by splicing the raw name and
// fields bytes out of the incoming view — the application payload is
// never rematerialized at the broker — and the single encoded buffer
// either fans out to the root's own row of subscriber nodes (zero-leaf
// tree) or goes once to every leaf whose row has subscribers: O(leaves)
// wire work at the root regardless of subscriber population. One
// string-keyed topic probe per publish; everything after it is
// slice-indexed.
func (p *Platform) handlePublish(v *codec.MsgView) {
	topic, _ := v.Str("topic")
	p.mu.Lock()
	tt := p.topics[string(topic)]
	fromLow := p.brokerLowLocked()
	var row []int32
	if tt != nil && len(p.leaves) == 0 {
		row = tt.rows[0]
	}
	p.mu.Unlock()
	if tt == nil {
		return
	}
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
	p.forward(fromLow, row, data)
	for li := range p.leaves {
		p.mu.Lock()
		empty := len(tt.rows[li]) == 0
		var leafLow int32 = -1
		if id := p.leafIDs[li]; !empty && id >= 0 {
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

// handleEvent routes an event arriving at a node. At a leaf broker it
// is the leaf half of the hot path: the received wire bytes are re-sent
// verbatim — no parse beyond the topic probe, no re-encode — to the
// leaf's row of subscriber nodes (legal because the transport copies
// synchronously, so the pooled delivery buffer the bytes alias is free
// to recycle afterwards). At a subscriber node the event is demuxed
// over the node's dense sink table: every sink matching the topic
// receives the envelope in place (zero-copy, zero-alloc), in
// subscription order.
func (p *Platform) handleEvent(atID int32, v *codec.MsgView, data []byte) {
	topic, _ := v.Str("topic")
	p.mu.Lock()
	if li := p.leafIndexOfLocked(atID); li >= 0 {
		var row []int32
		if tt := p.topics[string(topic)]; tt != nil {
			row = tt.rows[li]
		}
		leafLow := p.nodeLows[atID]
		p.mu.Unlock()
		p.forward(leafLow, row, data)
		return
	}
	sinks := p.eventSinks[atID]
	p.mu.Unlock()
	for i := range sinks {
		if sinks[i].topic == string(topic) {
			sinks[i].fn(*v)
		}
	}
}
