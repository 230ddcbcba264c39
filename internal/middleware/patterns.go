package middleware

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/codec"
	"repro/internal/protocol"
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

	// schemaReply is the read side of both reply shapes: a reply fills
	// either its error or its result slot.
	schemaReply = codec.CompileSchema("mw.reply", "error", "id", "result")

	// mwSchemas validates every wire message once and resolves its
	// fields for the handlers, which read them by the slots below.
	mwSchemas = codec.NewSchemaSet(schemaCall, schemaOneway, schemaReply,
		schemaEnqueue, schemaDeliver, schemaPublish, schemaEvent)

	slotCallArgs     = schemaCall.Slot("args")
	slotCallID       = schemaCall.Slot("id")
	slotCallOp       = schemaCall.Slot("op")
	slotCallTarget   = schemaCall.Slot("target")
	slotOnewayArgs   = schemaOneway.Slot("args")
	slotOnewayOp     = schemaOneway.Slot("op")
	slotOnewayTarget = schemaOneway.Slot("target")
	slotReplyError   = schemaReply.Slot("error")
	slotReplyID      = schemaReply.Slot("id")
	slotReplyResult  = schemaReply.Slot("result")
	slotEnqFields    = schemaEnqueue.Slot("fields")
	slotEnqName      = schemaEnqueue.Slot("name")
	slotEnqQueue     = schemaEnqueue.Slot("queue")
	slotDeliverQueue = schemaDeliver.Slot("queue")
	slotPubFields    = schemaPublish.Slot("fields")
	slotPubName      = schemaPublish.Slot("name")
	slotPubTopic     = schemaPublish.Slot("topic")
	slotEventTopic   = schemaEvent.Slot("topic")
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
// Invoke resolves the calling node and the target by name and then runs
// InvokeAt; a caller that calls repeatedly resolves both once
// (AttachRuntime, Lookup) and calls InvokeAt itself.
func (p *Platform) Invoke(from Addr, target ObjRef, op string, args []byte, cont func(codec.MsgView, error)) error {
	if !p.profile.Supports(PatternRPC) {
		return fmt.Errorf("%w: %s on %q", ErrPatternUnsupported, PatternRPC, p.profile.Name)
	}
	fromID, err := p.ensureRuntime(from)
	if err != nil {
		return err
	}
	reg, ok := p.objects[target]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownObject, target)
	}
	return p.InvokeAt(fromID, reg, op, args, cont)
}

// InvokeAt is Invoke from the node with id fromID (see AttachRuntime) to
// a resolved registration (see Lookup), with no name lookup.
//
// args is the operation's argument record already in wire form — one
// complete encoded record value, as produced by a codec.CompileRecord
// schema's Encoder or by codec.Append on a Record; nil sends the empty
// record. It is spliced into the call message verbatim and copied before
// InvokeAt returns, so it may live in a pooled buffer.
//
// The call is asynchronous in virtual time (the simulation has no
// blocking); cont runs when the reply arrives, or with ErrCallTimeout if
// the profile sets a timeout that expires first. The result view cont
// receives aliases the delivery buffer and is valid only until cont
// returns.
//
//repolint:hotpath
func (p *Platform) InvokeAt(fromID int32, target *Registration, op string, args []byte, cont func(codec.MsgView, error)) error {
	if !p.profile.Supports(PatternRPC) {
		return fmt.Errorf("%w: %s on %q", ErrPatternUnsupported, PatternRPC, p.profile.Name) //repolint:allow alloc -- cold: profile lacks RPC
	}
	if fromID < 0 || int(fromID) >= len(p.downNodes) {
		return fmt.Errorf("middleware: invoke from node %d: %w", fromID, protocol.ErrUnknownEntity) //repolint:allow alloc -- cold: caller not attached
	}
	if cont == nil {
		cont = discardResult
	}
	if p.downNodes[target.nodeID] || p.downNodes[fromID] {
		p.failFast(target.nodeID, fromID, cont)
		return nil
	}
	p.nextCall++
	id := p.nextCall
	pc := p.getCall()
	pc.id, pc.cont, pc.node, pc.caller = id, cont, target.nodeID, fromID
	if p.profile.CallTimeout > 0 {
		pc.timer = p.kern.Schedule(p.profile.CallTimeout, pc.onTimeout)
	}
	p.pending[id] = pc
	p.stats.Calls++
	if args == nil {
		args = codec.RawEmptyRecord
	}
	buf := p.kern.Buffers().Get()
	e := schemaCall.Encoder(buf.B[:0])
	e.Raw("args", args)
	e.Uint("id", id)
	e.Str("op", op)
	e.Str("target", string(target.ref))
	if err := p.finishSend(buf, &e, fromID, target.nodeID); err != nil {
		if pc, ok := p.pending[id]; ok {
			pc.timer.Cancel() // zero ref is an inert no-op
			delete(p.pending, id)
			p.putCall(pc)
		}
		return err
	}
	return nil
}

// discardResult is the continuation of calls whose caller passed none.
func discardResult(codec.MsgView, error) {}

// discardReply is the reply continuation of oneway dispatches.
func discardReply([]byte, error) {}

// failFast fails a call whose callee or caller node is down, but
// asynchronously: callers treat a synchronous Invoke error as a
// programming mistake, while ErrUnavailable is an operational outcome
// that belongs on the continuation. The caller's own node being down
// fails the same way — a crashed node cannot transmit, so letting the
// call proceed would leak a request the wire silently drops and a
// pending entry nothing ever resolves. The continuation rides a pooled
// call cell, and the error is the down node's shared "is down" value, so
// failing a call allocates nothing in steady state.
//
//repolint:hotpath
func (p *Platform) failFast(calleeID, callerID int32, cont func(codec.MsgView, error)) {
	down := calleeID
	if p.downNodes[callerID] {
		down = callerID
	}
	p.stats.Unavailables++
	c := p.getCall()
	c.cont, c.node = cont, down
	p.kern.ScheduleFunc(0, c.onFail)
}

func (p *Platform) onCallTimeout(id uint64) {
	pc, ok := p.pending[id]
	var cont func(codec.MsgView, error)
	if ok {
		delete(p.pending, id)
		p.stats.Timeouts++
		cont = pc.cont
		p.putCall(pc)
	}
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
	reg, ok := p.objects[target]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownObject, target)
	}
	p.stats.Oneways++
	if args == nil {
		args = codec.RawEmptyRecord
	}
	buf := p.kern.Buffers().Get()
	e := schemaOneway.Encoder(buf.B[:0])
	e.Raw("args", args)
	e.Str("op", op)
	e.Str("target", string(target))
	return p.finishSend(buf, &e, fromID, reg.nodeID)
}

// QueueDeclare creates a named queue at the platform broker.
func (p *Platform) QueueDeclare(name string) error {
	if !p.profile.Supports(PatternQueue) {
		return fmt.Errorf("%w: %s on %q", ErrPatternUnsupported, PatternQueue, p.profile.Name)
	}
	if _, err := p.ensureRuntime(p.broker); err != nil {
		return err
	}
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
	if _, ok := p.queues[queue]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownQueue, queue)
	}
	p.stats.QueuePuts++
	if fields == nil {
		fields = codec.RawEmptyRecord
	}
	buf := p.kern.Buffers().Get()
	e := schemaEnqueue.Encoder(buf.B[:0])
	e.Raw("fields", fields)
	e.Str("name", name)
	e.Str("queue", queue)
	return p.finishSend(buf, &e, fromID, p.brokerID)
}

// QueueSubscribe adds a consumer for a queue. Each message goes to exactly
// one consumer; multiple consumers share the queue round-robin, in
// subscription order, whether or not they share a node. Messages
// put before any subscription are retained and delivered on first
// subscribe. The consumer's node is resolved to its id here, once, so
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
	q, ok := p.queues[queue]
	if !ok {
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
	q, ok := p.queues[queue]
	if !ok {
		return
	}
	if len(q.consumers) == 0 {
		q.backlog = append(q.backlog, queuedMsg{
			name:   append([]byte(nil), name...),
			fields: append([]byte(nil), fields...),
		})
		return
	}
	c := q.consumers[q.nextRR%len(q.consumers)]
	q.nextRR++
	p.stats.QueueDeliver++
	buf := p.kern.Buffers().Get()
	e := schemaDeliver.Encoder(buf.B[:0])
	e.Raw("fields", fields)
	e.Str("name", string(name))
	e.Str("queue", queue)
	//nolint:errcheck // broker delivery failure = message loss, acceptable for MOM sim
	_ = p.finishSend(buf, &e, p.brokerID, c.nodeID)
}

// Publish sends a message to every subscriber of a topic (event
// source/sink pattern): PublishRecord of its encoded field record.
func (p *Platform) Publish(from Addr, topic string, m codec.Message) error {
	buf := p.kern.Buffers().Get()
	defer buf.Release()
	fields, err := codec.Append(buf.B[:0], m.Fields)
	if err != nil {
		return fmt.Errorf("middleware: marshal: %w", err)
	}
	buf.B = fields
	return p.PublishRecord(from, topic, m.Name, fields)
}

// PublishRecord publishes the event name, its field record already in
// wire form under the Invoke argument contract.
func (p *Platform) PublishRecord(from Addr, topic, name string, fields []byte) error {
	if !p.profile.Supports(PatternPubSub) {
		return fmt.Errorf("%w: %s on %q", ErrPatternUnsupported, PatternPubSub, p.profile.Name)
	}
	fromID, err := p.ensureRuntime(from)
	if err != nil {
		return err
	}
	p.stats.Publishes++
	if fields == nil {
		fields = codec.RawEmptyRecord
	}
	buf := p.kern.Buffers().Get()
	e := schemaPublish.Encoder(buf.B[:0])
	e.Raw("fields", fields)
	e.Str("name", name)
	e.Str("topic", topic)
	return p.finishSend(buf, &e, fromID, p.brokerID)
}

// SubscribeTopicView registers a zero-copy event sink at a node named
// by its address: it refuses the broker tree's addresses (the root and
// every leaf) without attaching them, attaches the node's runtime, and
// runs SubscribeTopicAt. A caller that subscribes repeatedly resolves
// the node once (AttachRuntime) and calls SubscribeTopicAt itself.
func (p *Platform) SubscribeTopicView(topic string, node Addr, fn func(v codec.MsgView)) error {
	if err := p.checkSubscribe(topic, fn); err != nil {
		return err
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
	return p.SubscribeTopicAt(topic, nodeID, fn)
}

// SubscribeTopicAt registers a zero-copy event sink at the node with id
// nodeID, which AttachRuntime has attached. The sink receives a
// codec.MsgView over the mw.event envelope (fields "topic", "name",
// "fields") aliasing the transport's pooled delivery buffer. The view
// and every byte slice read through it are valid only until the sink
// returns; retain with an explicit copy. This is the demux path with
// zero per-event allocations.
//
// The node is enrolled in its row of the topic's broker-tree table and
// the sink joins the node's sinks for the topic — the "resolved once at
// subscribe time" half of the pub/sub fast path. The broker tree's
// nodes (the root, and any leaf) cannot subscribe.
func (p *Platform) SubscribeTopicAt(topic string, nodeID int32, fn func(v codec.MsgView)) error {
	if err := p.checkSubscribe(topic, fn); err != nil {
		return err
	}
	if nodeID < 0 || int(nodeID) >= len(p.attached) || !p.attached[nodeID] {
		return fmt.Errorf("middleware: subscribe node %d to %q: %w", nodeID, topic, protocol.ErrUnknownEntity)
	}
	if nodeID == p.brokerID {
		return fmt.Errorf("%w: node %d is the root broker; it cannot subscribe", ErrFederation, nodeID)
	}
	if p.leafIndexOf(nodeID) >= 0 {
		return fmt.Errorf("%w: node %d is a leaf broker; it cannot subscribe", ErrFederation, nodeID)
	}
	if p.brokerID < 0 {
		if _, err := p.ensureRuntime(p.broker); err != nil {
			return err
		}
	}
	tt := p.topics[topic]
	if tt == nil {
		tt = &topicTable{rows: make([][]int32, max(1, len(p.leaves)))}
		p.topics[topic] = tt
	}
	li := 0 // the root's row on a zero-leaf tree
	if len(p.leaves) > 0 {
		li = int(nodeID) % len(p.leaves)
	}
	tt.enroll(nodeID, li)
	sinks := p.eventSinks[nodeID]
	i := slices.IndexFunc(sinks, func(s eventSink) bool { return s.topic == topic })
	if i < 0 {
		i = len(sinks)
		sinks = append(sinks, eventSink{topic: topic})
	}
	sinks[i].fns = append(sinks[i].fns, fn)
	p.eventSinks[nodeID] = sinks
	if li < len(p.leaves) && p.leafIDs[li] < 0 {
		// The leaf runtime must be live before the first publish reaches it.
		if _, err := p.ensureRuntime(p.leaves[li]); err != nil {
			return err
		}
	}
	return nil
}

// checkSubscribe refuses a subscription no node could take: a nil sink,
// or a profile without pub/sub.
func (p *Platform) checkSubscribe(topic string, fn func(codec.MsgView)) error {
	if fn == nil {
		return fmt.Errorf("middleware: nil sink for topic %q", topic)
	}
	if !p.profile.Supports(PatternPubSub) {
		return fmt.Errorf("%w: %s on %q", ErrPatternUnsupported, PatternPubSub, p.profile.Name)
	}
	return nil
}

// onWire is the platform runtime's receive path at node atID (src is
// the sending node).
// The wire bytes alias the transport's pooled delivery buffer, so when
// dispatch overhead defers the work, the bytes are copied into a pooled
// buffer carried by a pooled deferred-dispatch record that lives exactly
// until the deferred handler finishes.
func (p *Platform) onWire(src, atID int32, data []byte) {
	overhead := p.profile.DispatchOverhead
	if overhead > 0 {
		d := p.freeDeferred
		if d != nil {
			p.freeDeferred = d.next
			d.next = nil
		} else {
			d = &deferredWire{p: p}
			d.fn = d.run
		}
		d.src, d.atID = src, atID
		buf := p.kern.Buffers().Get()
		buf.B = append(buf.B[:0], data...)
		d.buf = buf
		p.kern.ScheduleFunc(overhead, d.fn)
		return
	}
	p.handleWire(src, atID, data)
}

// handleWire demarshals the implicit protocol through one slot parse
// and dispatches per message type. Corrupt wire messages are dropped and
// counted (Stats.Corrupt).
func (p *Platform) handleWire(src, atID int32, data []byte) {
	var sl codec.Slots
	if err := mwSchemas.Parse(data, &sl); err != nil {
		p.stats.Corrupt++
		return
	}
	switch sl.Schema() {
	case schemaCall:
		p.handleCall(src, atID, &sl)
	case schemaReply:
		p.handleReply(&sl)
	case schemaOneway:
		p.handleOneway(atID, &sl)
	case schemaEnqueue:
		p.handleEnqueue(&sl)
	case schemaDeliver:
		p.handleDeliver(atID, &sl)
	case schemaPublish:
		p.handlePublish(&sl)
	case schemaEvent:
		p.handleEvent(atID, &sl, data)
	}
}

// lookupLocal finds the object a wire message targets among those hosted
// at the receiving node. A node hosts a handful of objects, so a scan
// with the length-first string compare beats hashing the name.
//
//repolint:hotpath
func (p *Platform) lookupLocal(atID int32, target []byte) (Object, bool) {
	for _, reg := range p.hosted[atID] {
		if string(reg.ref) == string(target) {
			return reg.obj, true
		}
	}
	return nil, false
}

// recordField returns a record field of a wire message — the arguments
// of a call or oneway, the fields of an enqueue — as a view of the
// delivery buffer: it crosses into the consumer borrowed, never
// materialized. A message whose field is not a well-formed canonical
// record is counted corrupt (ok false).
//
//repolint:hotpath
func (p *Platform) recordField(sl *codec.Slots, field codec.Slot) (codec.MsgView, bool) {
	rec, ok := sl.RecordAt(field)
	if !ok {
		p.stats.Corrupt++
	}
	return rec, ok
}

// getReplyCell pops (or creates) a reply cell.
//
//repolint:hotpath
func (p *Platform) getReplyCell() *replyCell {
	c := p.freeReply
	if c != nil {
		p.freeReply = c.next
		c.next = nil
	}
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
	c.next = p.freeReply
	p.freeReply = c
}

// handleCall dispatches one mw.call to its object with a pooled reply
// cell, recycling the cell when the object replied before Dispatch
// returned (the common, synchronous case).
//
//repolint:hotpath
func (p *Platform) handleCall(src, atID int32, sl *codec.Slots) {
	id, _ := sl.UintAt(slotCallID)
	args, ok := p.recordField(sl, slotCallArgs)
	if !ok {
		return
	}
	target, _ := sl.StrAt(slotCallTarget)
	obj, ok := p.lookupLocal(atID, target)
	if !ok {
		p.sendReply(id, atID, src, nil, errUnknownAtNode)
		return
	}
	op, _ := sl.StrAt(slotCallOp)
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
	p.stats.Replies++
	p.sendReply(c.id, c.atID, c.src, result, err)
}

// sendReply encodes the mw.reply of call id — the error text, or the
// result record spliced in verbatim (nil = empty record) — and sends it
// from the serving node (at) back to the caller (to).
//
//repolint:hotpath
func (p *Platform) sendReply(id uint64, at, to int32, result []byte, err error) {
	buf := p.kern.Buffers().Get()
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
func (p *Platform) handleReply(sl *codec.Slots) {
	id, _ := sl.UintAt(slotReplyID)
	errText, hasErr := sl.StrAt(slotReplyError)
	var result codec.MsgView
	if !hasErr {
		var ok bool
		if result, ok = sl.RecordAt(slotReplyResult); !ok {
			p.stats.Corrupt++
			return
		}
	}
	pc, ok := p.pending[id]
	var cont func(codec.MsgView, error)
	if ok {
		pc.timer.Cancel() // zero ref is an inert no-op
		delete(p.pending, id)
		cont = pc.cont
		p.putCall(pc)
	}
	if !ok {
		return // late reply after timeout
	}
	if hasErr {
		cont(codec.MsgView{}, fmt.Errorf("%w: %s", ErrRemote, errText)) //repolint:allow alloc -- cold: remote application error
		return
	}
	cont(result, nil)
}

func (p *Platform) handleOneway(atID int32, sl *codec.Slots) {
	args, ok := p.recordField(sl, slotOnewayArgs)
	if !ok {
		return
	}
	target, _ := sl.StrAt(slotOnewayTarget)
	obj, ok := p.lookupLocal(atID, target)
	if !ok {
		return
	}
	op, _ := sl.StrAt(slotOnewayOp)
	obj.Dispatch(op, args, discardReply) // replies discarded
}

// handleEnqueue is the broker half of the queue plane: the encoded field
// record is validated, then spliced into the consumer's mw.deliver
// without ever being materialized (as handlePublish does for events).
// An enqueue whose fields are not a record is counted corrupt.
func (p *Platform) handleEnqueue(sl *codec.Slots) {
	if _, ok := p.recordField(sl, slotEnqFields); !ok {
		return
	}
	queue, _ := sl.StrAt(slotEnqQueue)
	name, _ := sl.StrAt(slotEnqName)
	fields, _ := sl.RawAt(slotEnqFields)
	p.deliverQueued(string(queue), name, fields)
}

// handleDeliver demultiplexes a queue delivery at the consuming node: the
// node's consumed-queue table is scanned for the queue (nodes consume
// from a handful of queues; the name compare takes Go's pointer-equality
// fast path for interned literals) and the node's consumers of that
// queue take the envelope in turn, in subscription order.
func (p *Platform) handleDeliver(atID int32, sl *codec.Slots) {
	queue, _ := sl.StrAt(slotDeliverQueue)
	var fn func(codec.MsgView)
	sinks := p.queueSinks[atID]
	for i := range sinks {
		if s := &sinks[i]; s.queue == string(queue) {
			fn = s.fns[s.next%len(s.fns)]
			s.next++
			break
		}
	}
	if fn != nil {
		fn(*sl.View())
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
func (p *Platform) handlePublish(sl *codec.Slots) {
	topic, _ := sl.StrAt(slotPubTopic)
	tt := p.topics[string(topic)]
	if tt == nil {
		return
	}
	var row []int32
	if len(p.leaves) == 0 {
		row = tt.rows[0]
	}
	rawName, ok := sl.RawAt(slotPubName)
	if !ok {
		rawName = codec.RawNil
	}
	rawFields, ok := sl.RawAt(slotPubFields)
	if !ok {
		rawFields = codec.RawNil
	}
	rawTopic, ok := sl.RawAt(slotPubTopic)
	if !ok {
		rawTopic = codec.RawNil
	}
	buf := p.kern.Buffers().Get()
	e := schemaEvent.Encoder(buf.B[:0])
	e.Raw("fields", rawFields)
	e.Raw("name", rawName)
	e.Raw("topic", rawTopic)
	data, err := e.Finish()
	if err != nil {
		buf.Release()
		return
	}
	p.forward(p.brokerID, row, data)
	for li, leaf := range p.leafIDs {
		if len(tt.rows[li]) == 0 {
			continue
		}
		//nolint:errcheck // event delivery failure = event loss, acceptable for pub/sub sim
		_ = p.sendData(p.brokerID, leaf, data)
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
// over the node's sink table, which groups the node's sinks by topic:
// the topic is found once, and each of its sinks receives the envelope
// in place (zero-copy, zero-alloc), in subscription order.
//
//repolint:hotpath
func (p *Platform) handleEvent(atID int32, sl *codec.Slots, data []byte) {
	topic, _ := sl.StrAt(slotEventTopic)
	if li := p.leafIndexOf(atID); li >= 0 {
		var row []int32
		if tt := p.topics[string(topic)]; tt != nil { //repolint:allow strmap -- a leaf's one topic probe per event, not one per subscriber
			row = tt.rows[li]
		}
		p.forward(atID, row, data)
		return
	}
	sinks := p.eventSinks[atID]
	for i := range sinks {
		if sinks[i].topic == string(topic) {
			v := *sl.View()
			for _, fn := range sinks[i].fns {
				fn(v)
			}
			return
		}
	}
}
