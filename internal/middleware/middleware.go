// Package middleware implements the middleware-centred (distributed
// computing) paradigm of the paper's §3: "system parts interact through a
// limited set of interaction patterns offered by a middleware platform."
//
// The Platform offers four interaction patterns — request/response (RPC),
// one-way message passing, named message queues, and publish/subscribe
// events — gated by a Profile that models a concrete platform class
// (CORBA-like, RMI-like, JMS-like, MQ-like; the leaves of the paper's
// Figure 10 trajectory). Components are registered objects addressed by
// reference; invocations are marshalled with internal/codec and carried by
// an *implicit wire protocol* over a protocol.LowerService, which realizes
// the paper's observation that "the middleware-centred paradigm is somehow
// dependent on the protocol-centred paradigm: ... the middleware
// 'transforms' the interactions into (implicit) protocols."
//
// A platform node's id is the endpoint id the transport assigns its
// runtime at attach time; there is no second id space to translate.
// Subscriber and consumer tables are compact index sets resolved once
// at subscribe time, and the whole steady-state wire path — receive
// demux, broker fan-out, reply routing — carries endpoint ids only and
// runs on id-indexed tables with no map lookups and no allocations.
//
// # SPI, not API
//
// The Platform's raw interaction methods (Invoke, InvokeOneway,
// QueuePut, Publish, Register, Subscribe*) are the *service-provider
// interface* of the middleware plane. Applications — the case studies,
// the examples, the MDA engine — program against the typed service-port
// façade in internal/svc, which binds a core.ServiceSpec to a Platform
// and exposes Port/Sink/Source/Export endpoints over these methods.
// Only internal/svc, this package's tests, and the delivery-path
// benchmarks call the raw surface directly.
package middleware

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/codec"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// Errors reported by platform operations.
var (
	ErrPatternUnsupported = errors.New("middleware: interaction pattern not supported by platform profile")
	ErrUnknownObject      = errors.New("middleware: unknown object reference")
	ErrDuplicateObject    = errors.New("middleware: object reference already registered")
	ErrUnknownQueue       = errors.New("middleware: unknown queue")
	ErrDuplicateQueue     = errors.New("middleware: queue already declared")
	ErrUnknownOperation   = errors.New("middleware: unknown operation")
	ErrCallTimeout        = errors.New("middleware: call timed out")
	ErrRemote             = errors.New("middleware: remote exception")
)

// Pattern enumerates the interaction patterns a middleware platform may
// offer (§3: "request/response, message passing and message queues", plus
// event sources and sinks).
type Pattern int

// Interaction patterns.
const (
	PatternRPC Pattern = iota + 1
	PatternOneway
	PatternQueue
	PatternPubSub
)

// String renders the pattern as its lowercase wire/profile name.
func (p Pattern) String() string {
	switch p {
	case PatternRPC:
		return "rpc"
	case PatternOneway:
		return "oneway"
	case PatternQueue:
		return "queue"
	case PatternPubSub:
		return "pubsub"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// Addr is a hosting location on the simulated network.
type Addr = protocol.Addr

// ObjRef names a registered component object, platform-wide.
type ObjRef string

// Reply delivers the outcome of an RPC dispatch back to the platform.
// result is one complete encoded record value — the output of a
// codec.CompileRecord schema's Encoder or of codec.Append on a Record —
// and nil stands for the empty record (void operation). The platform
// copies result onto the wire before Reply returns, so it may live in a
// pooled buffer the caller recycles afterwards. A Reply runs at most
// once (later calls are no-ops) and must not be retained past its
// invocation: the continuation is a pooled cell (see handleCall).
type Reply func(result []byte, err error)

// Object is a component's dispatch interface: the platform invokes
// operations by name. Dispatch may reply asynchronously (it is given the
// reply continuation), which lets components implement callback-style
// coordination such as deferred grants.
//
// op and args are borrowed views of the delivery buffer: they are valid
// only until Dispatch returns (DESIGN.md §1.3). Decode what the
// operation needs — copying anything retained — before returning, even
// when the reply itself is deferred.
type Object interface {
	Dispatch(op []byte, args codec.MsgView, reply Reply)
}

// ObjectFunc adapts a function to the Object interface.
type ObjectFunc func(op []byte, args codec.MsgView, reply Reply)

// Dispatch implements Object.
func (f ObjectFunc) Dispatch(op []byte, args codec.MsgView, reply Reply) { f(op, args, reply) }

// Profile models a concrete middleware platform class: which interaction
// patterns it offers and its per-interaction overhead. Profiles are what
// the MDA engine's concrete-platform definitions point at.
type Profile struct {
	// Name identifies the platform class (e.g. "rpc-corba-like"); it is
	// the key ProfileByName resolves and the label carried into scenario
	// IDs.
	Name string
	// Patterns supported by this platform class.
	Patterns []Pattern
	// DispatchOverhead is added (virtual time) to every dispatched
	// interaction, modelling marshalling/demultiplexing cost.
	DispatchOverhead time.Duration
	// CallTimeout bounds RPC completion; zero disables timeouts.
	CallTimeout time.Duration
}

// Supports reports whether the profile offers the pattern.
func (p Profile) Supports(pattern Pattern) bool {
	for _, x := range p.Patterns {
		if x == pattern {
			return true
		}
	}
	return false
}

// Predefined platform profiles: the concrete platforms at the leaves of
// the paper's Figure 10 ("CORBA, JavaRMI" under RPC-based; "MQSeries, JMS"
// under asynchronous messaging).
var (
	// ProfileCORBALike: full-featured object middleware — RPC, oneway and
	// events (CORBA Notification-style).
	ProfileCORBALike = Profile{
		Name:             "rpc-corba-like",
		Patterns:         []Pattern{PatternRPC, PatternOneway, PatternPubSub},
		DispatchOverhead: 200 * time.Microsecond,
	}
	// ProfileRMILike: synchronous remote invocation only.
	ProfileRMILike = Profile{
		Name:             "rpc-rmi-like",
		Patterns:         []Pattern{PatternRPC},
		DispatchOverhead: 150 * time.Microsecond,
	}
	// ProfileJMSLike: message-oriented — queues and topics, no RPC.
	ProfileJMSLike = Profile{
		Name:             "msg-jms-like",
		Patterns:         []Pattern{PatternOneway, PatternQueue, PatternPubSub},
		DispatchOverhead: 120 * time.Microsecond,
	}
	// ProfileMQLike: store-and-forward queues only.
	ProfileMQLike = Profile{
		Name:             "queue-mq-like",
		Patterns:         []Pattern{PatternQueue},
		DispatchOverhead: 100 * time.Microsecond,
	}
)

// Profiles returns all predefined profiles in trajectory order.
func Profiles() []Profile {
	return []Profile{ProfileCORBALike, ProfileRMILike, ProfileJMSLike, ProfileMQLike}
}

// ProfileByName looks a predefined profile up by name.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Stats counts platform work per pattern plus wire totals.
type Stats struct {
	// Calls and Replies count RPC requests dispatched and replies
	// delivered; Oneways counts fire-and-forget invocations.
	Calls   uint64
	Replies uint64
	Oneways uint64
	// QueuePuts and QueueDeliver count queue enqueues and consumer
	// deliveries.
	QueuePuts    uint64
	QueueDeliver uint64
	// Publishes counts topic publishes; EventDeliver counts event
	// deliveries to subscriber nodes — the broker forwards one wire
	// message per node, which demuxes it to every co-located sink.
	Publishes    uint64
	EventDeliver uint64
	// Timeouts counts RPC deadline expirations.
	Timeouts uint64
	// Corrupt counts received wire messages dropped as malformed: bytes
	// that do not parse, an RPC whose argument or result record, or an
	// enqueue whose field record, is not a well-formed canonical record.
	Corrupt uint64
	// Unavailables counts RPCs failed fast with ErrUnavailable because
	// the callee node was down (NodeDown) at invoke time or crashed
	// while the call was pending.
	Unavailables uint64
	// WireMessages and WireBytes total every middleware-level message
	// handed to the transport, across all patterns.
	WireMessages uint64
	WireBytes    uint64
}

// Registration is a hosted object's routing entry: its reference, the
// id of its hosting node and its dispatch object. Register creates it and
// Rebind updates it in place, so a caller that resolved it once (Lookup)
// follows every move and invokes it (InvokeAt) with no name lookup.
type Registration struct {
	ref    ObjRef
	nodeID int32
	obj    Object
}

// NodeID returns the id of the object's current hosting node.
func (r *Registration) NodeID() int32 { return r.nodeID }

// pendingCall tracks an outstanding RPC at the caller side. The callee
// node id lets NodeDown fail calls whose server crashed before replying;
// the caller node id lets it fail calls whose client crashed — the
// restarted incarnation has no client-side call state either, so the
// reply could never be consumed. Cells are pooled on the platform's free
// list; the timeout and fail-fast functions are built once per cell, so
// arming a call timeout or failing a call fast allocates nothing in
// steady state. A cell returns to the pool only once its call is
// resolved and its timer cancelled or fired, so no live timer can reach
// a re-armed cell.
type pendingCall struct {
	p         *Platform
	id        uint64
	cont      func(codec.MsgView, error)
	timer     sim.TimerRef // call timeout; zero ref = none armed
	node      int32        // callee's platform node id; a fail-fast cell's down node
	caller    int32        // caller's platform node id
	onTimeout func()       // = c.timeout, built once
	onFail    func()       // = c.fail, built once
	next      *pendingCall
}

func (c *pendingCall) timeout() { c.p.onCallTimeout(c.id) }

// fail runs a fail-fast cell's continuation with its down node's "is
// down" error, recycling the cell first so a reentrant Invoke may reuse
// it.
func (c *pendingCall) fail() {
	cont, err := c.cont, c.p.unavail[c.node].down
	c.p.putCall(c)
	cont(codec.MsgView{}, err)
}

// getCall pops (or creates) a pending-call cell.
func (p *Platform) getCall() *pendingCall {
	c := p.freeCalls
	if c != nil {
		p.freeCalls = c.next
		c.next = nil
		return c
	}
	c = &pendingCall{p: p}
	c.onTimeout = c.timeout
	c.onFail = c.fail
	return c
}

// putCall recycles a resolved cell.
func (p *Platform) putCall(c *pendingCall) {
	c.cont = nil
	c.timer = sim.TimerRef{}
	c.next = p.freeCalls
	p.freeCalls = c
}

// replyCell is the pooled reply continuation of one dispatched call: it
// remembers where the reply travels (call id, caller node, serving node)
// and carries a Reply built once per cell, so a dispatch hands the
// object its continuation without allocating. handleCall
// recycles the cell only when the object replied before Dispatch
// returned; a reply that escaped the dispatch keeps its cell out of the
// pool for good (one cell per asynchronous reply, as the per-call
// closure cost), so a stale duplicate call can only ever hit a disarmed
// cell.
type replyCell struct {
	p     *Platform
	id    uint64
	src   int32 // caller node
	atID  int32 // serving node
	armed bool
	fn    Reply // = c.respond, built once
	next  *replyCell
}

// queueConsumer is one queue subscription, resolved to a node id
// for the broker's round-robin pick; the consumer callback itself lives
// in the node's queueSinks demux table.
type queueConsumer struct {
	nodeID int32
}

type queueState struct {
	// consumers in subscription order; delivery is round-robin.
	consumers []queueConsumer
	nextRR    int
	// backlog holds messages put before any consumer subscribed.
	backlog []queuedMsg
}

// queuedMsg is one backlogged queue message: its name and encoded field
// record, copied out of the delivery buffer they arrived in.
type queuedMsg struct {
	name, fields []byte
}

// eventSink is one topic's sinks at a node, in subscription order (the
// demux side of the pub/sub pattern): an event is matched against the
// topic once per node, however many sinks the node holds.
type eventSink struct {
	topic string
	fns   []func(codec.MsgView)
}

// queueSink is one queue's consumers at a node, in subscription order.
// next is the node's round-robin cursor over fns: co-located consumers
// take the node's deliveries in turn — the broker's round-robin over
// consumers, restricted to the node.
type queueSink struct {
	queue string
	fns   []func(codec.MsgView)
	next  int
}

// deferredWire is a pooled deferred-dispatch record: when the profile
// models dispatch overhead, the wire bytes are copied into a pooled
// buffer and handled after the virtual delay. The closure is built once
// per pooled object, so deferral allocates nothing in steady state.
type deferredWire struct {
	p    *Platform
	src  int32 // sending node
	atID int32 // receiving node
	buf  *codec.Buffer
	fn   func()
	next *deferredWire
}

func (d *deferredWire) run() {
	d.p.handleWire(d.src, d.atID, d.buf.B)
	buf := d.buf
	d.buf = nil
	buf.Release()
	d.next = d.p.freeDeferred
	d.p.freeDeferred = d
}

// Platform is a simulated middleware platform instance spanning the
// network. Create one with New, register component objects with Register,
// and interact through the pattern methods.
type Platform struct {
	kern      *sim.Kernel
	transport protocol.LowerService
	profile   Profile
	broker    Addr

	// A node id is the transport's endpoint id for the node. The
	// node-indexed tables grow to cover every attached node's id.
	objects  map[ObjRef]*Registration
	brokerID int32 // node id of the broker (-1 until attached)

	attached   []bool            // node id → the platform runtime is attached there
	hosted     [][]*Registration // node id → the objects hosted there
	eventSinks [][]eventSink     // node id → subscribed topics at that node, each with its sinks
	queueSinks [][]queueSink     // node id → consumed queues at that node
	downNodes  []bool            // node id → marked down by NodeDown
	unavail    []unavailErrs     // node id → its ErrUnavailable errors; grown by NodeDown

	pending   map[uint64]*pendingCall
	nextCall  uint64
	freeCalls *pendingCall
	freeReply *replyCell
	queues    map[string]*queueState
	topics    map[string]*topicTable

	// leaves are the broker tree's leaf addresses (WithFederation); with
	// none, the root broker forwards events to subscribers itself.
	leaves  []Addr
	leafIDs []int32 // node id per leaf, -1 until attached

	freeDeferred *deferredWire
	stats        Stats
}

// New creates a platform over transport. The broker address hosts the
// platform's queue/topic broker; it is attached lazily on first use.
// Options (WithFederation, …) configure the platform before any runtime
// attaches.
func New(kern *sim.Kernel, transport protocol.LowerService, profile Profile, broker Addr, opts ...Option) *Platform {
	p := &Platform{
		kern:      kern,
		transport: transport,
		profile:   profile,
		broker:    broker,
		brokerID:  -1,
		objects:   make(map[ObjRef]*Registration),
		pending:   make(map[uint64]*pendingCall),
		queues:    make(map[string]*queueState),
		topics:    make(map[string]*topicTable),
	}
	for _, opt := range opts {
		opt(p)
	}
	return p
}

// Profile returns the platform's profile.
func (p *Platform) Profile() Profile { return p.profile }

// Time returns the platform's kernel.
func (p *Platform) Time() *sim.Kernel { return p.kern }

// Stats returns a snapshot of platform counters.
func (p *Platform) Stats() Stats {
	return p.stats
}

// nodeID resolves a node to its id, when the platform runtime is
// attached there. Node ids are the transport's endpoint ids, so the
// transport resolves the name.
func (p *Platform) nodeID(node Addr) (int32, bool) {
	id, ok := p.transport.EndpointID(node)
	if !ok || int(id) >= len(p.attached) || !p.attached[id] {
		return -1, false
	}
	return id, true
}

// ensureRuntime attaches the platform's wire-protocol receiver on a node
// and returns the node's id.
func (p *Platform) ensureRuntime(node Addr) (int32, error) {
	if id, ok := p.nodeID(node); ok {
		return id, nil
	}
	var id int32
	id, err := p.transport.AttachIndexed(node, func(src int32, data []byte) {
		p.onWire(src, id, data)
	})
	if err != nil {
		return -1, fmt.Errorf("middleware: attach runtime at %q: %w", node, err)
	}
	for int(id) >= len(p.downNodes) {
		p.attached = append(p.attached, false)
		p.hosted = append(p.hosted, nil)
		p.eventSinks = append(p.eventSinks, nil)
		p.queueSinks = append(p.queueSinks, nil)
		p.downNodes = append(p.downNodes, false)
	}
	p.attached[id] = true
	if node == p.broker {
		p.brokerID = id
	}
	for i, leaf := range p.leaves {
		if node == leaf {
			p.leafIDs[i] = id
		}
	}
	return id, nil
}

// Register hosts obj at node under ref and returns its registration.
func (p *Platform) Register(ref ObjRef, node Addr, obj Object) (*Registration, error) {
	if obj == nil {
		return nil, fmt.Errorf("middleware: nil object for %q", ref)
	}
	nodeID, err := p.ensureRuntime(node)
	if err != nil {
		return nil, err
	}
	if _, dup := p.objects[ref]; dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateObject, ref)
	}
	reg := &Registration{ref: ref, nodeID: nodeID, obj: obj}
	p.objects[ref] = reg
	p.hosted[nodeID] = append(p.hosted[nodeID], reg)
	return reg, nil
}

// Lookup returns the registration of an object reference, or nil when
// none is registered. Resolve it once and invoke through InvokeAt: the
// handle stays valid across Rebind.
func (p *Platform) Lookup(ref ObjRef) *Registration { return p.objects[ref] }

// Resolve reports the hosting node of an object reference — the naming
// service every middleware provides.
func (p *Platform) Resolve(ref ObjRef) (Addr, bool) {
	reg, ok := p.objects[ref]
	if !ok {
		return "", false
	}
	return p.transport.EndpointAddr(reg.nodeID), true
}

// sendData transmits one already-encoded wire message between two
// nodes, counting it. The transport copies synchronously
// (LowerService.SendIndexed contract), so data may live in a pooled
// scratch buffer the caller recycles on return. A negative destination id (a
// node whose runtime is not attached) fails the send with
// protocol.ErrUnknownEntity.
//
//repolint:hotpath
func (p *Platform) sendData(from, to int32, data []byte) error {
	p.stats.WireMessages++
	p.stats.WireBytes += uint64(len(data))
	if to < 0 {
		return fmt.Errorf("middleware: wire send from %s: %w", p.transport.EndpointAddr(from), protocol.ErrUnknownEntity) //repolint:allow alloc -- cold: destination not attached
	}
	if err := p.transport.SendIndexed(from, to, data); err != nil {
		return fmt.Errorf("middleware: wire send %s→%s: %w", p.transport.EndpointAddr(from), p.transport.EndpointAddr(to), err) //repolint:allow alloc -- cold: transport refused the send
	}
	return nil
}

// forward fans one encoded event out from a broker — the root of a
// zero-leaf tree, or a leaf — to its row of subscriber nodes in one
// SendMultiIndexed call on the transport, counting one event delivery
// and one wire message per node. The single buffer serves every
// subscriber; it may be pooled, because the transport copies
// synchronously.
//
//repolint:hotpath
func (p *Platform) forward(from int32, row []int32, data []byte) {
	if len(row) == 0 {
		return
	}
	n := uint64(len(row))
	p.stats.EventDeliver += n
	p.stats.WireMessages += n
	p.stats.WireBytes += n * uint64(len(data))
	//nolint:errcheck // event delivery failure = event loss, acceptable for pub/sub sim
	_ = p.transport.SendMultiIndexed(from, row, data)
}
