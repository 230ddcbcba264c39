package core

import (
	"errors"
	"fmt"
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
// the run. A caller that wants the global trace for offline tooling (LTS
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
	strs       map[string]string // interned key values (see Event.str)
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
	o := &Observer{spec: spec, clock: clock, strs: make(map[string]string)}
	for _, c := range spec.Constraints {
		o.monitors = append(o.monitors, c.NewMonitor())
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
	e := Event{At: o.clock.Now(), SAP: sap, Primitive: primitive, Params: params}
	if v, err := codec.ParseRecord(params); err == nil {
		e.obs, e.view = o, v // parsed once, for validation and every monitor
	}
	o.events++
	if o.trace != nil {
		*o.trace = append(*o.trace, e.retained())
	}
	first := o.spec.CheckEvent(e)
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
	return first
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
