// Package svc is the application-facing API of the middleware plane: a
// typed service-port façade that realizes the paper's central claim — the
// *service concept* is the unit applications program against — in the
// code itself.
//
// A Service is declared from a validated core.ServiceSpec. Binding the
// service to a middleware.Platform — profile-checked through
// Profile.Supports — yields typed ports:
//
//   - Port[Req, Resp]: request/response with pooled per-call state
//     (steady-state calls add no allocations over the raw platform path)
//     and a typed error taxonomy. Call runs once; CallRetry is the
//     at-least-once call — the request encoded once, every attempt sent
//     from its Caller's current node, and a caller-supplied policy that
//     decides after each outcome whether to go again;
//   - Sink[T] / Source[T]: oneway, queue and topic endpoints built on the
//     platform's dense fan-out and zero-copy demux planes
//     (SendMultiIndexed, and SubscribeTopicView — the by-name wrapper
//     of SubscribeTopicAt — underneath);
//   - Export: the server side — typed operation handlers hosted as one
//     platform object.
//
// Ports take no options: they are typed marshalling over the platform
// and nothing else. CallRetry holds the retry mechanism only; the
// interval and which outcomes retry are the caller's policy. How long a call may take is platform policy (the
// profile's CallTimeout), and conformance is observed at the SAP, where
// the service is defined (core.Observer.Provider), not per port.
//
// The raw middleware.Platform methods (Invoke, Publish, QueuePut, ...)
// remain as the service-provider interface underneath this façade; case
// studies, examples and the MDA engine program against svc ports only.
package svc

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/middleware"
)

// The port error taxonomy. Errors surfaced by ports satisfy errors.Is
// for exactly one of these classes and for the underlying platform error
// chain. The three classes a call's continuation can see are the
// platform's own sentinels — ErrTimeout is middleware.ErrCallTimeout,
// ErrUnavailable is middleware.ErrUnavailable and ErrRemote is
// middleware.ErrRemote — so the platform's error reaches the caller as
// it is, and classifying it allocates nothing. The other classes wrap
// the platform error they classify.
var (
	// ErrUnsupportedPattern: the bound platform's profile does not offer
	// the interaction pattern the port needs.
	ErrUnsupportedPattern = errors.New("svc: interaction pattern not supported by platform profile")
	// ErrNoSuchService: the target object or queue is not known to the
	// platform.
	ErrNoSuchService = errors.New("svc: unknown service target")
	// ErrNoSuchOp: the platform rejected the operation name
	// (middleware.ErrUnknownOperation). An export asked for an operation
	// it does not handle replies an application error instead (ErrRemote).
	ErrNoSuchOp = errors.New("svc: unknown operation")
	// ErrTimeout: the platform's call timeout (the profile's CallTimeout)
	// expired before a reply arrived. It is middleware.ErrCallTimeout.
	ErrTimeout = middleware.ErrCallTimeout
	// ErrAlreadyBound: the service was bound twice, or an export
	// registered twice.
	ErrAlreadyBound = errors.New("svc: service already bound")
	// ErrUnavailable: the target's hosting node is down (crashed and not
	// yet restarted). Distinct from ErrTimeout so retry/rebind policies
	// can react immediately instead of waiting out a timeout. It is
	// middleware.ErrUnavailable.
	ErrUnavailable = middleware.ErrUnavailable
	// ErrRemote: the remote handler replied with an application error.
	// It is middleware.ErrRemote.
	ErrRemote = middleware.ErrRemote
)

// classed pairs a taxonomy class with the underlying cause so that
// errors.Is matches both: Is matches the class, and Unwrap leads on to
// the cause's chain. Neither allocates.
type classed struct {
	class error
	cause error
}

func (e *classed) Error() string { return e.class.Error() + ": " + e.cause.Error() }

// Is reports whether target is the error's class.
func (e *classed) Is(target error) bool { return target == e.class }

func (e *classed) Unwrap() error { return e.cause }

// wrapErr classifies a platform error into the svc taxonomy, keeping the
// original chain reachable. nil maps to nil; already-classified errors,
// the platform sentinel classes among them, pass through.
//
//repolint:hotpath
func wrapErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrUnavailable), errors.Is(err, ErrTimeout), errors.Is(err, ErrRemote),
		errors.Is(err, ErrUnsupportedPattern), errors.Is(err, ErrNoSuchService),
		errors.Is(err, ErrNoSuchOp), errors.Is(err, ErrAlreadyBound):
		return err
	case errors.Is(err, middleware.ErrPatternUnsupported):
		return &classed{class: ErrUnsupportedPattern, cause: err}
	case errors.Is(err, middleware.ErrUnknownObject), errors.Is(err, middleware.ErrUnknownQueue):
		return &classed{class: ErrNoSuchService, cause: err}
	case errors.Is(err, middleware.ErrUnknownOperation):
		return &classed{class: ErrNoSuchOp, cause: err}
	case errors.Is(err, middleware.ErrDuplicateObject), errors.Is(err, middleware.ErrDuplicateQueue):
		return &classed{class: ErrAlreadyBound, cause: err}
	default:
		return err
	}
}

// Service is a typed-port service declaration: a validated
// specification, the Figure 11 "service definition" made bindable. A
// primitive's parameter record layout is its core.PrimitiveDef.Schema.
type Service struct {
	spec *core.ServiceSpec

	bound bool
}

// New declares a service from a specification, which is validated.
func New(spec *core.ServiceSpec) (*Service, error) {
	if spec == nil {
		return nil, errors.New("svc: nil service spec")
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("svc: invalid service spec: %w", err)
	}
	return &Service{spec: spec}, nil
}

// Spec returns the service specification.
func (s *Service) Spec() *core.ServiceSpec { return s.spec }

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
	if s.bound {
		return nil, &classed{class: ErrAlreadyBound, cause: fmt.Errorf("service %q", s.spec.Name)}
	}
	s.bound = true
	return &Binding{svc: s, plat: p}, nil
}

// Binding is a Service bound to one middleware platform: the factory for
// typed ports, sinks, sources and exports. The underlying platform is
// deliberately not exposed — the binding is the application's whole
// window onto the middleware.
type Binding struct {
	svc  *Service
	plat *middleware.Platform

	pools []any // call-record pools, one per port type (poolFor)
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
