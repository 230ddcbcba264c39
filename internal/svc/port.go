package svc

import (
	"fmt"
	"sync"
	"sync/atomic"

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
// appends its wire form into a pooled buffer, the platform splices those
// bytes into the call message, and the export decodes its typed request
// from a view of the delivery buffer. Per-call bookkeeping (the reply
// adapter) is recycled through a free list, so a steady-state Call adds
// no heap allocations over the raw platform invoke underneath it.
type Port[Req, Resp any] struct {
	b      *Binding
	target middleware.ObjRef
	op     string
	enc    func([]byte, Req) ([]byte, error)
	dec    func(codec.MsgView) (Resp, error)

	// Call-state pool: a single-slot atomic fast path (sequential calls
	// never touch the mutex) over a mutex-guarded overflow list for
	// concurrent outstanding calls.
	slot atomic.Pointer[callState[Req, Resp]]
	mu   sync.Mutex
	free *callState[Req, Resp]
}

// callState is one outstanding call's pooled bookkeeping. The reply
// closure is built once per pooled object (it captures only the state
// itself), so a re-used state allocates nothing new.
type callState[Req, Resp any] struct {
	p       *Port[Req, Resp]
	cont    func(Resp, error)
	onReply func(codec.MsgView, error) // = s.reply, built once
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
	return &Port[Req, Resp]{b: b, target: target, op: op, enc: enc, dec: dec}, nil
}

// Target returns the port's target object reference.
func (p *Port[Req, Resp]) Target() middleware.ObjRef { return p.target }

// Op returns the port's wire operation name.
func (p *Port[Req, Resp]) Op() string { return p.op }

// getState pops (or creates) a pooled call state: the single slot first,
// the overflow list second, a fresh allocation last.
//
//repolint:hotpath
func (p *Port[Req, Resp]) getState() *callState[Req, Resp] {
	if s := p.slot.Swap(nil); s != nil {
		return s
	}
	p.mu.Lock()
	s := p.free
	if s != nil {
		p.free = s.next
		s.next = nil
	}
	p.mu.Unlock()
	if s == nil {
		s = &callState[Req, Resp]{p: p}
		s.onReply = s.reply
	}
	return s
}

// putState recycles a call state whose platform continuation has
// resolved (replied, timed out at the platform, or failed to send). The
// caller must have cleared cont already.
//
//repolint:hotpath
func (p *Port[Req, Resp]) putState(s *callState[Req, Resp]) {
	if p.slot.CompareAndSwap(nil, s) {
		return
	}
	p.mu.Lock()
	s.next = p.free
	p.free = s
	p.mu.Unlock()
}

// Call performs the request/response interaction from the given node.
// cont (which may be nil) runs exactly once: with the decoded reply, or
// with a taxonomy error — ErrTimeout when the platform times the call
// out, ErrUnavailable when the callee's node goes down, ErrRemote on a
// remote application error. A synchronous failure (unknown target,
// unsupported pattern, transport refusal) is returned by Call itself and
// cont does not run.
//
// The request is encoded into a pooled buffer that is recycled before
// Call returns.
//
//repolint:hotpath
func (p *Port[Req, Resp]) Call(from middleware.Addr, req Req, cont func(Resp, error)) error {
	buf := codec.GetBuffer()
	args, err := p.enc(buf.B[:0], req)
	if err != nil {
		buf.Release()
		return fmt.Errorf("svc: port %s.%s: marshal request: %w", p.target, p.op, err) //repolint:allow alloc -- cold: encoder failure
	}
	buf.B = args
	s := p.getState()
	s.cont = cont
	err = p.b.plat.Invoke(from, p.target, p.op, args, s.onReply)
	buf.Release()
	if err != nil {
		s.cont = nil
		p.putState(s)
		return wrapErr(err)
	}
	return nil
}

// reply is the platform continuation and the call's only resolver: the
// platform runs it exactly once, on reply, timeout or failure. It runs
// lock-free — the happens-before chain to Call's field writes goes
// through the platform's own mutex — and returns the state to the pool
// before the continuation runs (on a local copy), so a reentrant Call
// from inside cont may reuse it safely. The result view borrows the
// delivery buffer: dec must copy whatever Resp retains.
func (s *callState[Req, Resp]) reply(result codec.MsgView, err error) {
	p := s.p
	cont := s.cont
	s.cont = nil
	p.putState(s)
	if cont != nil {
		var resp Resp
		if err == nil && p.dec != nil {
			resp, err = p.dec(result)
		}
		cont(resp, wrapErr(err))
	}
}

// Export hosts typed operation handlers as one platform component
// object: the server side of the port façade. Create it with
// Binding.NewExport, add handlers with HandleOp, then Register it.
type Export struct {
	b    *Binding
	ref  middleware.ObjRef
	node middleware.Addr

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
// dispatch hands the handler a respond function without allocating. Like
// the port's call-state pool, a single-slot atomic serves sequential
// dispatches; concurrent ones fall back to the mutex-guarded list.
type respondPool[Resp any] struct {
	enc  func([]byte, Resp) ([]byte, error)
	slot atomic.Pointer[respondCell[Resp]]
	mu   sync.Mutex
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
	buf := codec.GetBuffer()
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
	if p.slot.CompareAndSwap(nil, c) {
		return
	}
	p.mu.Lock()
	c.next = p.free
	p.free = c
	p.mu.Unlock()
}

// get pops (or creates) a cell bound to one dispatch's reply.
func (p *respondPool[Resp]) get(reply middleware.Reply) *respondCell[Resp] {
	c := p.slot.Swap(nil)
	if c == nil {
		p.mu.Lock()
		c = p.free
		if c != nil {
			p.free = c.next
			c.next = nil
		}
		p.mu.Unlock()
	}
	if c == nil {
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
// wire-buffer aliasing rules on network.Handler. The safety net: a
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
	o := &opHandler[Req, Resp]{dec: dec, h: h, pool: respondPool[Resp]{enc: enc}}
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
	if err := e.b.plat.Register(e.ref, e.node, e.object()); err != nil {
		return wrapErr(err)
	}
	e.registered = true
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
