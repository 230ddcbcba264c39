package svc

import (
	"fmt"
	"time"

	"repro/internal/codec"
	"repro/internal/middleware"
)

// Port is a typed request/response service port: the RPC pattern with a
// typed request/response pair and the svc error taxonomy. A port is
// bound to one (target, operation) pair; calls are asynchronous in
// virtual time — the continuation runs when the reply arrives, the
// platform times the call out (the profile's CallTimeout), or the call
// fails.
//
// The request travels as bytes from the port to the remote handler: enc
// appends its wire form into bytes owned by the call's pooled record,
// the platform splices those bytes into the call message, and the export
// decodes its typed request from a view of the delivery buffer. The
// per-call record (the encoded request and the reply adapter) is
// recycled through a free list that every port of the same type on the
// binding shares, so a steady-state Call or CallRetry adds no heap
// allocations over the raw platform invoke underneath it, and a port
// per callee costs no records of its own.
//
// The port resolves its target's registration once, when it is created
// or, for a target registered later, on its first call, and keeps the
// handle, which follows a Rebind: later calls make no name lookup.
type Port[Req, Resp any] struct {
	b      *Binding
	target middleware.ObjRef
	op     string
	enc    func([]byte, Req) ([]byte, error)
	dec    func(codec.MsgView) (Resp, error)
	reg    *middleware.Registration // nil until the target is registered

	pool *callPool[Req, Resp]
}

// callPool is the free list of one port type's call records, shared by
// every port of that type on a binding.
type callPool[Req, Resp any] struct{ free *callState[Req, Resp] }

// poolFor returns the binding's call-record pool for ports of type
// Port[Req, Resp], creating it on first use.
func poolFor[Req, Resp any](b *Binding) *callPool[Req, Resp] {
	for _, pl := range b.pools {
		if pl, ok := pl.(*callPool[Req, Resp]); ok {
			return pl
		}
	}
	pl := &callPool[Req, Resp]{}
	b.pools = append(b.pools, pl)
	return pl
}

// Caller is the calling side of an at-least-once call: the component
// whose hosting node each attempt leaves from, by the node's platform id
// (middleware.Platform.AttachRuntime). An Export is a Caller, so a
// component re-homed by Rebind retries from its new node.
type Caller interface {
	NodeID() int32
}

// callState is one logical call's pooled record: the request, encoded
// once into bytes the record owns, and what resolves the call — Call's
// continuation, or CallRetry's caller, interval and policy. Its reply and
// retry functions are built once per record (they capture only the
// record), so a re-used record allocates nothing new.
type callState[Req, Resp any] struct {
	p       *Port[Req, Resp]
	args    []byte
	cont    func(Resp, error)
	from    Caller
	every   time.Duration
	done    func(Resp, error) bool
	onReply func(codec.MsgView, error) // = s.reply, built once
	onRetry func()                     // = s.attempt, built once
	next    *callState[Req, Resp]
}

// NewPort creates a typed RPC port on the binding. enc appends the wire
// form of the request's parameter record to its buffer argument and
// returns the extended slice — one encoded record value, typically
// through a codec.CompileRecord schema (the Invoke argument contract);
// dec decodes the reply from a view of the result record, which is valid
// only while dec runs. dec may be nil for ports whose replies carry no
// payload (the zero Resp is delivered). The profile must offer the RPC
// pattern.
func NewPort[Req, Resp any](b *Binding, target middleware.ObjRef, op string,
	enc func([]byte, Req) ([]byte, error), dec func(codec.MsgView) (Resp, error)) (*Port[Req, Resp], error) {
	if err := b.supports(middleware.PatternRPC); err != nil {
		return nil, err
	}
	if enc == nil {
		return nil, fmt.Errorf("svc: port %s.%s: nil request encoder", target, op)
	}
	return &Port[Req, Resp]{b: b, target: target, op: op, enc: enc, dec: dec,
		reg: b.plat.Lookup(target), pool: poolFor[Req, Resp](b)}, nil
}

// Target returns the port's target object reference.
func (p *Port[Req, Resp]) Target() middleware.ObjRef { return p.target }

// Op returns the port's wire operation name.
func (p *Port[Req, Resp]) Op() string { return p.op }

// getState pops (or creates) a pooled call record for this port.
//
//repolint:hotpath
func (p *Port[Req, Resp]) getState() *callState[Req, Resp] {
	s := p.pool.free
	if s == nil {
		s = &callState[Req, Resp]{}
		s.onReply, s.onRetry = s.reply, s.attempt
	} else {
		p.pool.free = s.next
		s.next = nil
	}
	s.p = p
	return s
}

// putState recycles a call record whose call has resolved. The caller
// must have cleared cont, from and done already.
//
//repolint:hotpath
func (p *Port[Req, Resp]) putState(s *callState[Req, Resp]) {
	s.next = p.pool.free
	p.pool.free = s
}

// start pops a call record and encodes req into the bytes it owns.
//
//repolint:hotpath
func (p *Port[Req, Resp]) start(req Req) (*callState[Req, Resp], error) {
	s := p.getState()
	args, err := p.enc(s.args[:0], req)
	if err != nil {
		p.putState(s)
		return nil, fmt.Errorf("svc: port %s.%s: marshal request: %w", p.target, p.op, err) //repolint:allow alloc -- cold: encoder failure
	}
	s.args = args
	return s, nil
}

// Call performs the request/response interaction from the given node.
// cont (which may be nil) runs exactly once: with the decoded reply, or
// with a taxonomy error — ErrTimeout when the platform times the call
// out, ErrUnavailable when the callee's node goes down, ErrRemote on a
// remote application error. A synchronous failure (encoder failure,
// unknown target, unsupported pattern, transport refusal) is returned by
// Call itself and cont does not run.
//
//repolint:hotpath
func (p *Port[Req, Resp]) Call(from middleware.Addr, req Req, cont func(Resp, error)) error {
	s, err := p.start(req)
	if err != nil {
		return err
	}
	s.cont = cont
	fromID, err := p.b.plat.AttachRuntime(from)
	if err == nil {
		err = p.invoke(fromID, s)
	}
	if err != nil {
		s.cont = nil
		p.putState(s)
		return wrapErr(err)
	}
	return nil
}

// invoke sends one attempt of s from the node with id fromID to the
// port's target, resolving the target's registration on first use.
//
//repolint:hotpath
func (p *Port[Req, Resp]) invoke(fromID int32, s *callState[Req, Resp]) error {
	if p.reg == nil {
		if p.reg = p.b.plat.Lookup(p.target); p.reg == nil {
			return fmt.Errorf("%w: %q", middleware.ErrUnknownObject, p.target) //repolint:allow alloc -- cold: unknown target
		}
	}
	return p.b.plat.InvokeAt(fromID, p.reg, p.op, s.args, s.onReply)
}

// CallRetry performs an at-least-once request/response interaction: the
// retry mechanism, with the policy left to the caller. The request is
// encoded once, and every attempt sends those same bytes from the node
// from reports at that instant, with no name lookup. The first attempt leaves after the
// given delay (at once when it is zero). After each attempt done sees
// its outcome, as Call's continuation would — a synchronous platform
// refusal included — and answers whether to go again: true re-arms the
// call every later, false ends it. If req fails to encode, done sees
// that error once and the call ends, since there is nothing to resend.
func (p *Port[Req, Resp]) CallRetry(from Caller, req Req, after, every time.Duration, done func(Resp, error) bool) {
	s, err := p.start(req)
	if err != nil {
		var none Resp
		done(none, err)
		return
	}
	s.from, s.every, s.done = from, every, done
	if after > 0 {
		p.b.plat.Time().ScheduleFunc(after, s.onRetry)
		return
	}
	s.attempt()
}

// attempt sends one attempt of a CallRetry. A synchronous refusal is an
// outcome like any other: it goes to reply, and so to the policy.
//
//repolint:hotpath
func (s *callState[Req, Resp]) attempt() {
	if err := s.p.invoke(s.from.NodeID(), s); err != nil {
		s.reply(codec.MsgView{}, err)
	}
}

// reply is the platform continuation and the attempt's only resolver:
// the platform runs it exactly once, on reply, timeout or failure. A
// CallRetry's policy may re-arm the record; otherwise the record returns
// to the pool before cont runs (on a local copy), so a reentrant Call
// from inside cont may reuse it safely. The result view borrows the
// delivery buffer: dec must copy whatever Resp retains.
//
//repolint:hotpath
func (s *callState[Req, Resp]) reply(result codec.MsgView, err error) {
	p, cont, done := s.p, s.cont, s.done
	var resp Resp
	if err == nil && p.dec != nil {
		resp, err = p.dec(result)
	}
	err = wrapErr(err)
	if done != nil && done(resp, err) {
		p.b.plat.Time().ScheduleFunc(s.every, s.onRetry)
		return
	}
	s.cont, s.from, s.done = nil, nil, nil
	p.putState(s)
	if cont != nil {
		cont(resp, err)
	}
}

// Export hosts typed operation handlers as one platform component
// object: the server side of the port façade. Create it with
// Binding.NewExport, add handlers with HandleOp, then Register it.
type Export struct {
	b    *Binding
	ref  middleware.ObjRef
	node middleware.Addr          // current hosting node (moves on Rebind)
	reg  *middleware.Registration // set by Register; Rebind updates it in place

	// ops is a small linear table (exports host a handful of operations):
	// dispatch scans it with the length-first string compare, which beats
	// hashing at this size.
	ops        []exportOp
	registered bool
}

// exportOp is one operation's dispatch entry.
type exportOp struct {
	name string
	fn   func(codec.MsgView, middleware.Reply)
}

// lookup finds an operation's handler, comparing the borrowed wire name
// as bytes (no string is built per dispatch).
//
//repolint:hotpath
func (e *Export) lookup(op []byte) func(codec.MsgView, middleware.Reply) {
	for i := range e.ops {
		if e.ops[i].name == string(op) {
			return e.ops[i].fn
		}
	}
	return nil
}

// Node returns the export's current hosting node.
func (e *Export) Node() middleware.Addr { return e.node }

// NodeID returns the platform id of the export's current hosting node
// (-1 before Register). It makes an Export a Caller: a component that
// retries from its export follows a Rebind.
func (e *Export) NodeID() int32 {
	if e.reg == nil {
		return -1
	}
	return e.reg.NodeID()
}

// NewExport prepares a typed component object hosted at node under ref.
func (b *Binding) NewExport(ref middleware.ObjRef, node middleware.Addr) (*Export, error) {
	if err := b.supports(middleware.PatternRPC); err != nil {
		// Oneway-only platforms may still export (oneway targets objects);
		// accept if either invocation pattern is offered.
		if err2 := b.supports(middleware.PatternOneway); err2 != nil {
			return nil, err
		}
	}
	return &Export{b: b, ref: ref, node: node}, nil
}

// respondPool recycles one operation's respond continuations: the cell's
// typed closure is built once per pooled object, so a steady-state
// dispatch hands the handler a respond function without allocating.
type respondPool[Resp any] struct {
	enc  func([]byte, Resp) ([]byte, error)
	bufs *codec.BufferList // the platform kernel's, for reply encoding
	free *respondCell[Resp]
}

type respondCell[Resp any] struct {
	pool  *respondPool[Resp]
	reply middleware.Reply
	fn    func(Resp, error) // = cell.respond, built once
	next  *respondCell[Resp]
}

// respond marshals the reply into a pooled buffer and delivers it (the
// platform copies it onto the wire before reply returns). Respond runs
// at most once per dispatch: extra calls are no-ops. Recycling is the
// dispatch wrapper's decision (put), never respond's own — a cell whose
// respond escaped the handler is abandoned to the GC, so a stale
// retained respond can only ever hit a disarmed cell, not a re-armed
// one.
//
//repolint:hotpath
func (c *respondCell[Resp]) respond(resp Resp, err error) {
	reply := c.reply
	if reply == nil {
		return // respond called twice
	}
	c.reply = nil
	enc := c.pool.enc
	if err != nil || enc == nil {
		reply(nil, err)
		return
	}
	buf := c.pool.bufs.Get()
	out, err := enc(buf.B[:0], resp)
	if err != nil {
		buf.Release()
		reply(nil, err)
		return
	}
	reply(out, nil)
	buf.B = out
	buf.Release()
}

// put returns a disarmed cell to the pool.
func (p *respondPool[Resp]) put(c *respondCell[Resp]) {
	c.next = p.free
	p.free = c
}

// get pops (or creates) a cell bound to one dispatch's reply.
func (p *respondPool[Resp]) get(reply middleware.Reply) *respondCell[Resp] {
	c := p.free
	if c != nil {
		p.free = c.next
		c.next = nil
	} else {
		c = &respondCell[Resp]{pool: p}
		c.fn = c.respond
	}
	c.reply = reply
	return c
}

// opHandler is one typed operation behind an export: the request
// decoder, the application handler and its pooled respond cells.
type opHandler[Req, Resp any] struct {
	dec  func(codec.MsgView) (Req, error)
	h    func(req Req, respond func(Resp, error))
	pool respondPool[Resp]
}

// dispatch decodes the request from the borrowed argument view and runs
// the handler with a pooled respond continuation. A decode failure
// replies the decoder's error to the caller.
//
//repolint:hotpath
func (o *opHandler[Req, Resp]) dispatch(args codec.MsgView, reply middleware.Reply) {
	req, err := o.dec(args)
	if err != nil {
		reply(nil, err)
		return
	}
	c := o.pool.get(reply)
	o.h(req, c.fn)
	// Recycle only when the handler responded synchronously: then the
	// wrapper holds the only live reference. A respond that escaped the
	// handler keeps its cell un-pooled (one cell per async dispatch —
	// the same per-dispatch cost the raw reply closure pays), so its
	// eventual call, and any stale duplicate, can never touch a
	// re-armed cell.
	if c.reply == nil {
		o.pool.put(c)
	}
}

// HandleOp adds a typed handler for one operation. dec decodes the
// request from a view of the argument record; the view (and every byte
// slice read through it) borrows the delivery buffer and is valid only
// while dec runs, so dec must copy whatever Req retains. enc appends the
// wire form of the response record to its buffer argument (nil replies
// an empty record). The handler's respond continuation may escape the
// handler and be called asynchronously, but must be invoked at most once
// and never retained past its invocation — the continuation is pooled
// per operation, so this is the same class of contract as the
// wire-buffer aliasing rules on network.SlotHandler. The safety net: a
// duplicate call on a cell that has not been re-armed is a no-op (a cell
// whose respond escaped the handler is never re-armed, so the async path
// is fully guarded); only a handler that responds synchronously, retains
// the continuation anyway, and fires it during a later dispatch of the
// same operation can misdeliver — a contract violation, never memory
// unsafety.
func HandleOp[Req, Resp any](e *Export, op string,
	dec func(codec.MsgView) (Req, error), enc func([]byte, Resp) ([]byte, error),
	h func(req Req, respond func(Resp, error))) error {
	if e.registered {
		return &classed{class: ErrAlreadyBound, cause: fmt.Errorf("export %q already registered", e.ref)}
	}
	if h == nil || dec == nil {
		return fmt.Errorf("svc: export %q: nil decoder or handler for %q", e.ref, op)
	}
	for i := range e.ops {
		if e.ops[i].name == op {
			return fmt.Errorf("svc: export %q: duplicate handler for %q", e.ref, op)
		}
	}
	o := &opHandler[Req, Resp]{dec: dec, h: h, pool: respondPool[Resp]{enc: enc, bufs: e.b.plat.Time().Buffers()}}
	e.ops = append(e.ops, exportOp{name: op, fn: o.dispatch})
	return nil
}

// object builds the export's platform dispatch object.
func (e *Export) object() middleware.Object { return middleware.ObjectFunc(e.dispatch) }

// dispatch routes one inbound call to its operation's handler.
// Dispatches to operations without a handler reply
// middleware.ErrUnknownOperation, exactly as a hand-written component
// object would.
//
//repolint:hotpath
func (e *Export) dispatch(op []byte, args codec.MsgView, reply middleware.Reply) {
	fn := e.lookup(op)
	if fn == nil {
		reply(nil, fmt.Errorf("%w: %q", middleware.ErrUnknownOperation, op)) //repolint:allow alloc -- cold: unknown operation
		return
	}
	fn(args, reply)
}

// Register hosts the export on the platform.
func (e *Export) Register() error {
	if e.registered {
		return &classed{class: ErrAlreadyBound, cause: fmt.Errorf("export %q already registered", e.ref)}
	}
	reg, err := e.b.plat.Register(e.ref, e.node, e.object())
	if err != nil {
		return wrapErr(err)
	}
	e.reg, e.registered = reg, true
	return nil
}

// Rebind re-homes a registered export to a new hosting node — the
// failover move of a churn policy: the reference keeps its identity,
// ports calling it re-route on their next Call, and calls in flight to
// the old home fail with ErrUnavailable when it went down, or with
// ErrTimeout when the profile sets a CallTimeout. The export's
// handlers serve unchanged at the new node (a fresh dispatch object is
// installed; application state recovery is the handler's concern).
func (e *Export) Rebind(node middleware.Addr) error {
	if !e.registered {
		return &classed{class: ErrNoSuchService, cause: fmt.Errorf("export %q not registered", e.ref)}
	}
	if err := e.b.plat.Rebind(e.ref, node, e.object()); err != nil {
		return wrapErr(err)
	}
	e.node = node
	return nil
}
