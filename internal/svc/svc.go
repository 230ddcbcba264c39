// Package svc is the application-facing API of the middleware plane: a
// typed service-port façade that realizes the paper's central claim — the
// *service concept* is the unit applications program against — in the
// code itself.
//
// A Service is declared from a validated core.ServiceSpec (its primitive
// parameter records are schema-compiled once, at declaration). Binding
// the service to a middleware.Platform — profile-checked through
// Profile.Supports — yields typed ports:
//
//   - Port[Req, Resp]: request/response with sim-time deadlines, pooled
//     per-call state (steady-state calls add no allocations over the raw
//     platform path) and a typed error taxonomy;
//   - Sink[T] / Source[T]: oneway, queue and topic endpoints built on the
//     platform's dense fan-out and zero-copy demux planes
//     (SendMultiIndexed / SubscribeTopicView underneath);
//   - Export: the server side — typed operation handlers hosted as one
//     platform object.
//
// Every port optionally carries a core.Monitor: conformance observation
// then runs inline on the wire path (the event is checked before the
// interaction is transmitted, and a monitor veto aborts it), instead of
// post-hoc over a recorded trace.
//
// The raw middleware.Platform methods (Invoke, Publish, QueuePut, ...)
// remain as the service-provider interface underneath this façade; case
// studies, examples and the MDA engine program against svc ports only.
package svc

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/middleware"
	"repro/internal/sim"
)

// The port error taxonomy. Errors surfaced by ports satisfy errors.Is
// for exactly one of these classes and for the underlying platform error
// chain (e.g. a deadline expiry Is both ErrTimeout and, when the
// platform timed the call out underneath, middleware.ErrCallTimeout).
var (
	// ErrUnsupportedPattern: the bound platform's profile does not offer
	// the interaction pattern the port needs.
	ErrUnsupportedPattern = errors.New("svc: interaction pattern not supported by platform profile")
	// ErrNoSuchService: the target object or queue is not known to the
	// platform.
	ErrNoSuchService = errors.New("svc: unknown service target")
	// ErrNoSuchOp: the remote object rejected the operation name, or a
	// port was declared for a primitive its service spec does not define.
	ErrNoSuchOp = errors.New("svc: unknown operation")
	// ErrTimeout: the call's sim-time deadline (or the platform's own
	// call timeout) expired before a reply arrived.
	ErrTimeout = errors.New("svc: call deadline expired")
	// ErrAlreadyBound: the service was bound twice, or an export
	// registered twice.
	ErrAlreadyBound = errors.New("svc: service already bound")
	// ErrVetoed: the port's inline monitor rejected the interaction; it
	// was not transmitted.
	ErrVetoed = errors.New("svc: interaction vetoed by monitor")
	// ErrUnavailable: the target's hosting node is down (crashed and not
	// yet restarted). Distinct from ErrTimeout so retry/rebind policies
	// can react immediately instead of waiting out a deadline.
	ErrUnavailable = errors.New("svc: target node unavailable")
	// ErrRemote: the remote handler replied with an application error.
	ErrRemote = errors.New("svc: remote error")
)

// classed pairs a taxonomy class with the underlying cause so that
// errors.Is matches both chains.
type classed struct {
	class error
	cause error
}

func (e *classed) Error() string { return e.class.Error() + ": " + e.cause.Error() }

func (e *classed) Unwrap() []error { return []error{e.class, e.cause} }

// wrapErr classifies a platform error into the svc taxonomy, keeping the
// original chain reachable. nil maps to nil; already-classified errors
// pass through.
func wrapErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrUnsupportedPattern), errors.Is(err, ErrNoSuchService),
		errors.Is(err, ErrNoSuchOp), errors.Is(err, ErrTimeout),
		errors.Is(err, ErrVetoed), errors.Is(err, ErrRemote), errors.Is(err, ErrAlreadyBound),
		errors.Is(err, ErrUnavailable):
		return err
	case errors.Is(err, middleware.ErrPatternUnsupported):
		return &classed{class: ErrUnsupportedPattern, cause: err}
	case errors.Is(err, middleware.ErrUnknownObject), errors.Is(err, middleware.ErrUnknownQueue):
		return &classed{class: ErrNoSuchService, cause: err}
	case errors.Is(err, middleware.ErrUnknownOperation):
		return &classed{class: ErrNoSuchOp, cause: err}
	case errors.Is(err, middleware.ErrDuplicateObject), errors.Is(err, middleware.ErrDuplicateQueue):
		return &classed{class: ErrAlreadyBound, cause: err}
	case errors.Is(err, middleware.ErrCallTimeout):
		return &classed{class: ErrTimeout, cause: err}
	case errors.Is(err, middleware.ErrUnavailable):
		return &classed{class: ErrUnavailable, cause: err}
	case errors.Is(err, middleware.ErrRemote):
		return &classed{class: ErrRemote, cause: err}
	default:
		return err
	}
}

// Service is a typed-port service declaration: a validated specification
// whose primitive parameter records are schema-compiled once. It is the
// Figure 11 "service definition" made bindable.
type Service struct {
	spec    *core.ServiceSpec
	schemas map[string]*codec.Schema // primitive name → compiled param record schema

	mu    sync.Mutex
	bound bool
}

// New declares a service from a specification. The spec is validated and
// each primitive's parameter record is compiled to a codec.Schema, so
// typed ports (and tooling) can encode primitive parameters without
// per-message key sorting.
func New(spec *core.ServiceSpec) (*Service, error) {
	if spec == nil {
		return nil, errors.New("svc: nil service spec")
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("svc: invalid service spec: %w", err)
	}
	s := &Service{spec: spec, schemas: make(map[string]*codec.Schema, len(spec.Primitives))}
	for _, p := range spec.Primitives {
		names := make([]string, len(p.Params))
		for i, param := range p.Params {
			names[i] = param.Name
		}
		s.schemas[p.Name] = codec.CompileSchema(p.Name, names...)
	}
	return s, nil
}

// Spec returns the service specification.
func (s *Service) Spec() *core.ServiceSpec { return s.spec }

// Schema returns the compiled parameter-record schema of a primitive.
func (s *Service) Schema(primitive string) (*codec.Schema, bool) {
	sc, ok := s.schemas[primitive]
	return sc, ok
}

// Bind binds the service to a platform, yielding the port factory. The
// platform profile is checked against every pattern the service's ports
// will use: an unoffered pattern fails the bind with ErrUnsupportedPattern
// (port constructors re-check their own pattern, so passing no patterns
// just defers the check to port creation). A Service binds at most once;
// a second Bind fails with ErrAlreadyBound.
func (s *Service) Bind(p *middleware.Platform, patterns ...middleware.Pattern) (*Binding, error) {
	if p == nil {
		return nil, errors.New("svc: bind to nil platform")
	}
	profile := p.Profile()
	for _, pat := range patterns {
		if !profile.Supports(pat) {
			return nil, &classed{
				class: ErrUnsupportedPattern,
				cause: fmt.Errorf("service %q needs %s, profile %q does not offer it", s.spec.Name, pat, profile.Name),
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bound {
		return nil, &classed{class: ErrAlreadyBound, cause: fmt.Errorf("service %q", s.spec.Name)}
	}
	s.bound = true
	return &Binding{svc: s, plat: p, kern: p.Time()}, nil
}

// Binding is a Service bound to one middleware platform: the factory for
// typed ports, sinks, sources and exports. The underlying platform is
// deliberately not exposed — the binding is the application's whole
// window onto the middleware.
type Binding struct {
	svc  *Service
	plat *middleware.Platform
	kern *sim.Kernel
}

// Service returns the bound service declaration.
func (b *Binding) Service() *Service { return b.svc }

// Profile returns the bound platform's profile.
func (b *Binding) Profile() middleware.Profile { return b.plat.Profile() }

// supports verifies one pattern against the bound profile.
func (b *Binding) supports(pat middleware.Pattern) error {
	if !b.plat.Profile().Supports(pat) {
		return &classed{
			class: ErrUnsupportedPattern,
			cause: fmt.Errorf("%s on profile %q", pat, b.plat.Profile().Name),
		}
	}
	return nil
}

// DeclareQueue creates a named queue at the platform broker.
func (b *Binding) DeclareQueue(name string) error {
	return wrapErr(b.plat.QueueDeclare(name))
}

// Resolve reports the hosting node of a service target — the naming
// service every middleware provides, lifted to the façade.
func (b *Binding) Resolve(target middleware.ObjRef) (middleware.Addr, bool) {
	return b.plat.Resolve(target)
}

// PortOption configures a port, sink, source or export endpoint.
type PortOption func(*portConfig)

type portConfig struct {
	deadline  time.Duration
	monitor   core.Monitor
	sap       core.SAP
	primitive string
}

// WithDeadline bounds every call on the port by d of virtual time: if no
// reply arrived, the continuation fires exactly once with ErrTimeout and
// a late reply is dropped. Zero disables the port deadline (the
// platform's own profile timeout, if any, still applies).
func WithDeadline(d time.Duration) PortOption {
	return func(c *portConfig) { c.deadline = d }
}

// WithMonitor attaches an inline conformance monitor: every interaction
// through the endpoint is reported to m as a core.Event at the given SAP
// — at the current virtual instant, on the wire path, before
// transmission (outbound) or before the application handler (inbound). A
// non-nil Observe error vetoes an outbound interaction: it is not sent
// and the error surfaces as ErrVetoed.
func WithMonitor(sap core.SAP, m core.Monitor) PortOption {
	return func(c *portConfig) { c.sap = sap; c.monitor = m }
}

// WithPrimitive names the service primitive the endpoint realizes.
// Monitor events then carry this primitive name instead of the wire
// operation, and the endpoint constructor verifies the primitive exists
// in the service spec (ErrNoSuchOp otherwise).
func WithPrimitive(name string) PortOption {
	return func(c *portConfig) { c.primitive = name }
}

// applyOptions resolves options against the binding's spec.
func (b *Binding) applyOptions(op string, opts []PortOption) (portConfig, error) {
	var cfg portConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.primitive == "" {
		cfg.primitive = op
	} else if _, ok := b.svc.spec.Primitive(cfg.primitive); !ok {
		return cfg, &classed{
			class: ErrNoSuchOp,
			cause: fmt.Errorf("primitive %q not declared by service %q", cfg.primitive, b.svc.spec.Name),
		}
	}
	return cfg, nil
}

// observeOut reports an outbound interaction to the endpoint monitor,
// vetoing on error.
func (c *portConfig) observeOut(k *sim.Kernel, params codec.Record) error {
	if c.monitor == nil {
		return nil
	}
	e := core.Event{At: k.Now(), SAP: c.sap, Primitive: c.primitive, Params: params}
	if err := c.monitor.Observe(e); err != nil {
		return &classed{class: ErrVetoed, cause: err}
	}
	return nil
}

// observeIn reports an inbound interaction to the endpoint monitor.
// Violations on the inbound path are recorded by the monitor itself (the
// delivery already happened on the wire); they do not veto the handler.
func (c *portConfig) observeIn(k *sim.Kernel, params codec.Record) {
	if c.monitor == nil {
		return
	}
	_ = c.monitor.Observe(core.Event{At: k.Now(), SAP: c.sap, Primitive: c.primitive, Params: params}) //nolint:errcheck // inbound violations surface via the monitor's own state
}

// observeInOp is observeIn for multi-operation endpoints (exports): the
// dispatched operation names the event primitive unless the config pins
// one explicitly.
func (c *portConfig) observeInOp(k *sim.Kernel, op string, params codec.Record) {
	if c.monitor == nil {
		return
	}
	prim := c.primitive
	if prim == "" {
		prim = op
	}
	_ = c.monitor.Observe(core.Event{At: k.Now(), SAP: c.sap, Primitive: prim, Params: params}) //nolint:errcheck // inbound violations surface via the monitor's own state
}

// paramsOf materializes an encoded argument record as the boxed params
// of a monitor event — the cold path, taken only when a monitor is
// attached.
func paramsOf(args []byte) codec.Record {
	v, err := codec.ParseRecord(args)
	if err != nil {
		return nil
	}
	params, _ := v.Fields() //nolint:errcheck // ParseRecord validated the structure
	return params
}

// RecordEncoder adapts a codec.Record-building marshaller to the wire
// contract of NewPort, NewOnewaySink and HandleOp: the record is built
// and then encoded through the generic (map-sorting) codec. It is the
// thin bridge for tests, experiments and dynamically shaped payloads;
// typed hot paths append through a codec.CompileRecord schema instead.
func RecordEncoder[T any](f func(T) codec.Record) func([]byte, T) ([]byte, error) {
	return func(buf []byte, v T) ([]byte, error) { return codec.Append(buf, f(v)) }
}

// RecordDecoder adapts a codec.Record-consuming unmarshaller to the view
// contract of NewPort and HandleOp: the borrowed view is materialized
// (copied) into a Record first, so f may retain it.
func RecordDecoder[T any](f func(codec.Record) (T, error)) func(codec.MsgView) (T, error) {
	return func(v codec.MsgView) (T, error) {
		r, err := v.Fields()
		if err != nil {
			var zero T
			return zero, err
		}
		return f(r)
	}
}
