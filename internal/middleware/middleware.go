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
// Every platform node gets a dense small-int id when its runtime
// attaches, and a transport endpoint id from the transport's dense plane
// (protocol.IndexedLower; New wraps any other transport with
// protocol.AsIndexed). Subscriber and consumer tables are compact index
// sets resolved once at subscribe time, and the whole steady-state wire
// path — receive demux, broker fan-out, reply routing — carries endpoint
// ids only and runs on slot-indexed tables with no map lookups and no
// allocations.
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
	"sync"
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

// registration is a hosted object; the hosting node is held by dense id.
type registration struct {
	nodeID int32
	obj    Object
}

// pendingCall tracks an outstanding RPC at the caller side. The callee
// node id lets NodeDown fail calls whose server crashed before replying;
// the caller node id lets it fail calls whose client crashed — the
// restarted incarnation has no client-side call state either, so the
// reply could never be consumed. Cells are pooled on the platform's free
// list; the timeout closure is built once per cell, so arming a call
// timeout allocates nothing in steady state. A cell returns to the pool
// only once its call is resolved and its timer cancelled or fired, so
// no live timer can reach a re-armed cell.
type pendingCall struct {
	p         *Platform
	id        uint64
	cont      func(codec.MsgView, error)
	timer     sim.TimerRef // call timeout; zero ref = none armed
	node      int32        // callee's platform node id
	caller    int32        // caller's platform node id
	onTimeout func()       // = c.timeout, built once
	next      *pendingCall
}

func (c *pendingCall) timeout() { c.p.onCallTimeout(c.id) }

// getCallLocked pops (or creates) a pending-call cell. Caller holds p.mu.
func (p *Platform) getCallLocked() *pendingCall {
	c := p.freeCalls
	if c != nil {
		p.freeCalls = c.next
		c.next = nil
		return c
	}
	c = &pendingCall{p: p}
	c.onTimeout = c.timeout
	return c
}

// putCallLocked recycles a resolved cell. Caller holds p.mu.
func (p *Platform) putCallLocked(c *pendingCall) {
	c.cont = nil
	c.timer = sim.TimerRef{}
	c.next = p.freeCalls
	p.freeCalls = c
}

// replyCell is the pooled reply continuation of one dispatched call: it
// remembers where the reply travels (call id, caller's transport id,
// serving node) and carries a Reply built once per cell, so a dispatch
// hands the object its continuation without allocating. handleCall
// recycles the cell only when the object replied before Dispatch
// returned; a reply that escaped the dispatch keeps its cell out of the
// pool for good (one cell per asynchronous reply, as the per-call
// closure cost), so a stale duplicate call can only ever hit a disarmed
// cell.
type replyCell struct {
	p     *Platform
	id    uint64
	src   int32 // caller's transport endpoint id
	atID  int32
	armed bool
	fn    Reply // = c.respond, built once
	next  *replyCell
}

// queueConsumer is one queue subscription, resolved to a dense node id
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

// eventSink is one node-local topic subscription (the demux side of the
// pub/sub pattern).
type eventSink struct {
	topic string
	fn    func(codec.MsgView)
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
	src  int32 // sender's transport endpoint id
	atID int32
	buf  *codec.Buffer
	fn   func()
	next *deferredWire
}

func (d *deferredWire) run() {
	d.p.handleWire(d.src, d.atID, d.buf.B)
	buf := d.buf
	d.buf = nil
	buf.Release()
	d.p.mu.Lock()
	d.next = d.p.freeDeferred
	d.p.freeDeferred = d
	d.p.mu.Unlock()
}

// Platform is a simulated middleware platform instance spanning the
// network. Create one with New, register component objects with Register,
// and interact through the pattern methods.
type Platform struct {
	kern      *sim.Kernel
	transport protocol.IndexedLower
	profile   Profile
	broker    Addr

	mu        sync.Mutex
	objects   map[ObjRef]registration
	nodes     map[Addr]int32 // runtime intern: addr → platform node id
	nodeAddrs []Addr         // node id → addr
	nodeLows  []int32        // node id → transport endpoint id (-1 unresolved)
	brokerID  int32          // platform node id of the broker (-1 until attached)

	eventSinks [][]eventSink // node id → topic subscriptions at that node
	queueSinks [][]queueSink // node id → consumed queues at that node
	downNodes  []bool        // node id → marked down by NodeDown

	pending   map[uint64]*pendingCall
	nextCall  uint64
	freeCalls *pendingCall
	freeReply *replyCell
	queues    map[string]*queueState
	topics    map[string]*topicTable

	// leaves are the broker tree's leaf addresses (WithFederation); with
	// none, the root broker forwards events to subscribers itself.
	leaves  []Addr
	leafIDs []int32 // platform node id per leaf, -1 until attached

	freeDeferred *deferredWire
	stats        Stats
}

// New creates a platform over transport (see protocol.AsIndexed). The
// broker address hosts the platform's queue/topic broker; it is attached
// lazily on first use. Options (WithFederation, …) configure the
// platform before any runtime attaches.
func New(kern *sim.Kernel, transport protocol.LowerService, profile Profile, broker Addr, opts ...Option) *Platform {
	p := &Platform{
		kern:      kern,
		transport: protocol.AsIndexed(transport),
		profile:   profile,
		broker:    broker,
		brokerID:  -1,
		objects:   make(map[ObjRef]registration),
		nodes:     make(map[Addr]int32),
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
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// ensureRuntime attaches the platform's wire-protocol receiver on a node
// and returns the node's dense platform id. Caller must NOT hold p.mu.
func (p *Platform) ensureRuntime(node Addr) (int32, error) {
	p.mu.Lock()
	if id, ok := p.nodes[node]; ok {
		p.mu.Unlock()
		return id, nil
	}
	id := int32(len(p.nodeAddrs))
	p.nodes[node] = id
	p.nodeAddrs = append(p.nodeAddrs, node)
	p.nodeLows = append(p.nodeLows, -1)
	p.eventSinks = append(p.eventSinks, nil)
	p.queueSinks = append(p.queueSinks, nil)
	p.downNodes = append(p.downNodes, false)
	if node == p.broker {
		p.brokerID = id
	}
	for i, leaf := range p.leaves {
		if node == leaf {
			p.leafIDs[i] = id
		}
	}
	p.mu.Unlock()
	low, err := p.transport.AttachIndexed(node, func(src int32, data []byte) {
		p.onWire(src, id, data)
	})
	if err != nil {
		return id, fmt.Errorf("middleware: attach runtime at %q: %w", node, err)
	}
	p.mu.Lock()
	p.nodeLows[id] = low
	p.mu.Unlock()
	return id, nil
}

// Register hosts obj at node under ref.
func (p *Platform) Register(ref ObjRef, node Addr, obj Object) error {
	if obj == nil {
		return fmt.Errorf("middleware: nil object for %q", ref)
	}
	nodeID, err := p.ensureRuntime(node)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.objects[ref]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateObject, ref)
	}
	p.objects[ref] = registration{nodeID: nodeID, obj: obj}
	return nil
}

// Resolve reports the hosting node of an object reference — the naming
// service every middleware provides.
func (p *Platform) Resolve(ref ObjRef) (Addr, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	reg, ok := p.objects[ref]
	if !ok {
		return "", false
	}
	return p.nodeAddrs[reg.nodeID], true
}

// sendData transmits one already-encoded wire message between two
// transport endpoint ids, counting it. The transport copies synchronously
// (LowerService.Send contract), so data may live in a pooled scratch
// buffer the caller recycles on return. A negative destination id (a
// node whose runtime is not attached) fails the send with
// protocol.ErrUnknownEntity.
//
//repolint:hotpath
func (p *Platform) sendData(from, to int32, data []byte) error {
	p.mu.Lock()
	p.stats.WireMessages++
	p.stats.WireBytes += uint64(len(data))
	p.mu.Unlock()
	if to < 0 {
		return fmt.Errorf("middleware: wire send from %s: %w", p.transport.EndpointAddr(from), protocol.ErrUnknownEntity) //repolint:allow alloc -- cold: destination not attached
	}
	if err := p.transport.SendIndexed(from, to, data); err != nil {
		return fmt.Errorf("middleware: wire send %s→%s: %w", p.transport.EndpointAddr(from), p.transport.EndpointAddr(to), err) //repolint:allow alloc -- cold: transport refused the send
	}
	return nil
}

// forward fans one encoded event out from a broker — the root of a
// zero-leaf tree, or a leaf — to its row of subscriber nodes over the
// transport's indexed batch path (all deliveries scheduled under a
// single kernel lock), counting one event delivery and one wire message
// per node. The single buffer serves every subscriber; it may be
// pooled, because the transport copies synchronously.
//
//repolint:hotpath
func (p *Platform) forward(from int32, row []int32, data []byte) {
	if len(row) == 0 {
		return
	}
	n := uint64(len(row))
	p.mu.Lock()
	p.stats.EventDeliver += n
	p.stats.WireMessages += n
	p.stats.WireBytes += n * uint64(len(data))
	p.mu.Unlock()
	//nolint:errcheck // event delivery failure = event loss, acceptable for pub/sub sim
	_ = p.transport.SendMultiIndexed(from, row, data)
}

// brokerLowLocked returns the broker's transport id (-1 while its
// runtime is not attached). Caller holds p.mu.
func (p *Platform) brokerLowLocked() int32 {
	if p.brokerID < 0 {
		return -1
	}
	return p.nodeLows[p.brokerID]
}
