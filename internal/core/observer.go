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
	strictKind bool
}

// ObserverOption configures an Observer.
type ObserverOption func(*Observer)

// WithEventValidation makes the observer also validate each event against
// the primitive declarations (unknown primitives, wrong parameter kinds).
func WithEventValidation() ObserverOption {
	return func(o *Observer) { o.strictKind = true }
}

// WithTrace makes the observer append every observed event to *tr, in
// observation order. Without it no event is retained.
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
	o := &Observer{spec: spec, clock: clock}
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

// Observe records the execution of a primitive at a SAP and checks it
// against every constraint. It returns the first violation, which is also
// retained (see Err and Violations). Observe never blocks the observed
// system: violations are reported, not enforced.
func (o *Observer) Observe(sap SAP, primitive string, params codec.Record) error {
	e := Event{At: o.clock.Now(), SAP: sap, Primitive: primitive, Params: params}
	o.events++
	if o.trace != nil {
		*o.trace = append(*o.trace, e)
	}
	var first error
	if o.strictKind {
		if err := o.spec.CheckEvent(e); err != nil {
			first = err
			o.violations = append(o.violations, err)
		}
	}
	for _, m := range o.monitors {
		if err := m.Observe(e); err != nil {
			if first == nil {
				first = err
			}
			o.violations = append(o.violations, err)
		}
	}
	return first
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
	Submit(sap SAP, primitive string, params codec.Record) error
	// Attach registers the handler that receives to-user primitives
	// delivered at the given SAP. A SAP has at most one handler; attaching
	// twice replaces it.
	Attach(sap SAP, handler func(primitive string, params codec.Record))
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

func (o *observedProvider) Submit(sap SAP, primitive string, params codec.Record) error {
	_ = o.obs.Observe(sap, primitive, params) //nolint:errcheck // violations surface via Observer.Err
	return o.inner.Submit(sap, primitive, params)
}

func (o *observedProvider) Attach(sap SAP, handler func(string, codec.Record)) {
	o.inner.Attach(sap, func(primitive string, params codec.Record) {
		_ = o.obs.Observe(sap, primitive, params) //nolint:errcheck // violations surface via Observer.Err
		handler(primitive, params)
	})
}
