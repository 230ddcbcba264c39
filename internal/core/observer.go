package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/codec"
)

// Clock supplies the current virtual time to the observer; *sim.Kernel
// satisfies it.
type Clock interface {
	Now() time.Duration
}

// Observer watches service-primitive executions at the SAP boundary and
// checks every constraint of a specification online. It keeps only what
// its monitors need and an event count, no per-event history: the
// floor-control monitors hold just the keys still in flight, however long
// the run, in slices indexed by each key's dense id (see keyTable). A
// caller that wants the global trace for offline tooling (LTS
// refinement, replay, printing) asks for it with WithTrace.
//
// The observer is the runtime embodiment of the paper's claim that a
// service can be "assessed formally": conforming solutions pass through it
// unchanged; non-conforming ones are caught at the first violating event.
type Observer struct {
	spec  *ServiceSpec
	clock Clock

	events     int
	trace      *Trace // nil unless WithTrace
	monitors   []Monitor
	violations []error
	keys       *keyTable // the monitors' key ids

	// prims holds each primitive of the spec with its parameter record
	// schema, compiled once here. While an event is observed, cur is its
	// primitive (nil when the spec declares none of its name), sap its
	// SAP, slots its params parsed against cur's schema (against
	// noParams for an unknown primitive), and key caches the one
	// parameter the monitors correlate by, with the ids of its key at
	// the event's SAP (local) and of its SAP-independent key (remote),
	// so the monitors of one event resolve it once.
	prims []slottedPrim
	cur   *slottedPrim
	sap   SAP
	slots codec.Slots
	key   struct {
		set, ok       bool
		name, val     string
		local, remote int32
	}
}

// noParams is the schema an unknown primitive's params are parsed
// against: no slots, only the view.
var noParams = codec.CompileRecord()

// observedPrims compiles the parameter schema of every primitive of
// spec, a valid one, once. Primitives that declare the same parameter
// names (every floor-control primitive carries {resid}) share one
// schema.
func observedPrims(spec *ServiceSpec) []slottedPrim {
	prims := make([]slottedPrim, len(spec.Primitives))
	for i, p := range spec.Primitives {
		var schema *codec.Schema
		for _, q := range prims[:i] {
			if slices.EqualFunc(q.def.Params, p.Params, func(a, b ParamDef) bool { return a.Name == b.Name }) {
				schema = q.schema
				break
			}
		}
		if schema == nil {
			schema = p.Schema()
		}
		prims[i] = slotPrim(p, schema)
	}
	return prims
}

// ObserverOption configures an Observer.
type ObserverOption func(*Observer)

// WithTrace makes the observer append every observed event to *tr, in
// observation order, each with its own copy of the params. Without it no
// event is retained.
func WithTrace(tr *Trace) ObserverOption {
	return func(o *Observer) { o.trace = tr }
}

// NewObserver creates an observer for a validated specification.
func NewObserver(spec *ServiceSpec, clock Clock, opts ...ObserverOption) (*Observer, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("observer: invalid spec: %w", err)
	}
	if clock == nil {
		return nil, errors.New("observer: nil clock")
	}
	o := &Observer{spec: spec, clock: clock, keys: newKeyTable(), prims: observedPrims(spec),
		monitors: make([]Monitor, 0, len(spec.Constraints))}
	for _, c := range spec.Constraints {
		m := c.NewMonitor()
		if km, ok := m.(keyedMonitor); ok {
			km.useKeys(o.keys)
		}
		o.monitors = append(o.monitors, m)
	}
	for _, opt := range opts {
		opt(o)
	}
	return o, nil
}

// Spec returns the specification being observed.
func (o *Observer) Spec() *ServiceSpec { return o.spec }

// Observe records the execution of a primitive at a SAP, with params (its
// encoded parameter record) borrowed for the call, validates it
// (ServiceSpec.CheckEvent) and checks it against every constraint. It
// returns the first violation, which is also retained (see Err and
// Violations). Observe never blocks the observed system: violations are
// reported, not enforced.
//
//repolint:hotpath
func (o *Observer) Observe(sap SAP, primitive string, params []byte) error {
	e := Event{At: o.clock.Now(), SAP: sap, Primitive: primitive, Params: params, obs: o}
	// The primitive is found once, and its params parsed once against
	// its schema, for validation and every monitor.
	o.cur, o.sap, o.key.set = nil, sap, false
	schema := noParams
	for i := range o.prims {
		if p := &o.prims[i]; p.def.Name == primitive {
			o.cur, schema = p, p.schema
			break
		}
	}
	perr := schema.ParseRecord(params, &o.slots)
	o.events++
	if o.trace != nil {
		*o.trace = append(*o.trace, e.retained())
	}
	first := o.spec.checkEvent(e, o.cur, &o.slots, perr)
	if first != nil {
		o.retain(first)
	}
	for _, m := range o.monitors {
		if err := m.Observe(e); err != nil {
			if first == nil {
				first = err
			}
			o.retain(err)
		}
	}
	o.keys.sweep()
	return first
}

// param reads the string parameter p of the event being observed.
// The first read of an event resolves it, and the ids of its keys (see
// keyID); later reads of the same name (every monitor correlating by
// it) return the cached value. The value is the key table's string, so
// a value seen before costs no allocation.
//
//repolint:hotpath
func (o *Observer) param(p *keyParam) (string, bool) {
	c := &o.key
	if c.set && c.name == p.name {
		return c.val, c.ok
	}
	b, ok := o.paramBytes(p)
	c.set, c.ok, c.name, c.val = true, ok, p.name, ""
	if ok {
		c.local, c.remote = o.keys.pair(o.sap, b)
		c.val = o.keys.keys[c.remote].Value
	}
	return c.val, ok
}

// paramBytes reads the string parameter p: by the primitive's slot when
// it is a declared parameter, otherwise by resolving p's one-field
// schema in the parsed view. Params that did not parse leave every slot
// and the view empty, so they carry none.
func (o *Observer) paramBytes(p *keyParam) ([]byte, bool) {
	if cur := o.cur; cur != nil {
		for i, decl := range cur.def.Params {
			if decl.Name == p.name {
				return o.slots.StrAt(cur.slots[i])
			}
		}
	}
	var sl codec.Slots
	p.schema.Resolve(o.slots.View(), &sl)
	return sl.StrAt(keySlot)
}

// keyID returns the dense id of k, a key of the event being observed.
// A key built from the cached parameter — at the event's SAP, or
// SAP-independent — has its id at hand; any other is looked up.
//
//repolint:hotpath
func (o *Observer) keyID(k Key) int32 {
	if c := &o.key; c.set && c.ok && k.Value == c.val {
		switch k.SAP {
		case o.sap:
			return c.local
		case SAP{}:
			return c.remote
		}
	}
	return o.keys.id(k)
}

// retain keeps a violation, its event detached from the params buffer.
func (o *Observer) retain(err error) {
	if v, ok := AsViolation(err); ok && v.Event != nil {
		*v.Event = v.Event.retained()
	}
	o.violations = append(o.violations, err)
}

// Complete closes the observation window, running end-of-trace (liveness)
// checks. It returns the first violation found over the whole run.
func (o *Observer) Complete() error {
	for _, m := range o.monitors {
		if err := m.AtEnd(); err != nil {
			o.violations = append(o.violations, err)
		}
	}
	if len(o.violations) > 0 {
		return o.violations[0]
	}
	return nil
}

// Err returns the first violation observed so far, or nil.
func (o *Observer) Err() error {
	if len(o.violations) > 0 {
		return o.violations[0]
	}
	return nil
}

// Violations returns all violations observed so far.
func (o *Observer) Violations() []error {
	return append([]error(nil), o.violations...)
}

// EventCount returns the number of observed events.
func (o *Observer) EventCount() int {
	return o.events
}

// Provider is the runtime face of a service, as seen by a user part at its
// SAP. FromUser primitives are submitted with Submit; ToUser primitives
// arrive on the handler registered with Attach.
//
// This interface is the concrete payoff of the service concept: an
// application part written against Provider runs unchanged over *any*
// implementation of the service — any of the paper's protocol solutions
// (a), (b) or (c) — which is exactly the §5 argument that the service
// "shields the application from the way in which the service is
// implemented".
type Provider interface {
	// Submit executes a from-user primitive at the given SAP.
	// params is its encoded parameter record, borrowed for the call.
	Submit(sap SAP, primitive string, params []byte) error
	// Attach registers the handler that receives to-user primitives
	// delivered at the given SAP (params borrowed likewise). A SAP has at
	// most one handler; attaching twice replaces it.
	Attach(sap SAP, handler func(primitive string, params []byte))
}

// Provider decorates p so that every primitive crossing the SAP boundary
// is also reported to the observer: a Submit before it is forwarded, a
// delivery before the user part's handler runs. User parts stay
// oblivious — they see a plain Provider. Observation never vetoes: a
// violating primitive still goes through, and the violation surfaces
// through Err, Violations and Complete.
func (o *Observer) Provider(p Provider) Provider {
	return &observedProvider{inner: p, obs: o}
}

// observedProvider is the decorator Observer.Provider returns.
type observedProvider struct {
	inner Provider
	obs   *Observer
}

func (o *observedProvider) Submit(sap SAP, primitive string, params []byte) error {
	_ = o.obs.Observe(sap, primitive, params) //nolint:errcheck // violations surface via Observer.Err
	return o.inner.Submit(sap, primitive, params)
}

func (o *observedProvider) Attach(sap SAP, handler func(string, []byte)) {
	o.inner.Attach(sap, func(primitive string, params []byte) {
		_ = o.obs.Observe(sap, primitive, params) //nolint:errcheck // violations surface via Observer.Err
		handler(primitive, params)
	})
}
