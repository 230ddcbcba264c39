// Package core implements the paper's primary contribution: the *service
// concept* as a first-class, machine-checkable design artifact.
//
// A service specification (ServiceSpec) defines, exactly as §2 and §4.2 of
// the paper prescribe:
//
//   - the *service primitives* that occur at service access points (SAPs),
//     with their parameters ("request, granted and free, with the resource
//     identification as parameter");
//   - the *roles* users play at those SAPs ("the identification of the
//     subscriber is implied by the identification of the access point");
//   - the *relationships between service primitives*, split into local
//     constraints (ordering at one SAP) and remote constraints (global,
//     e.g. "a resource is only granted to one subscriber at a time").
//
// The package also provides the machinery that makes a specification
// useful: an Observer that watches primitive executions at runtime and
// checks every constraint online (keeping only monitor state; the global
// trace is recorded for offline analysis only on request, see WithTrace),
// and a Provider interface that lets application parts be written once
// against the service and executed over any conforming implementation —
// the paper's core argument for why "the design of the application is not
// influenced by the choice of a protocol solution" (§5).
package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/codec"
)

// Direction distinguishes who initiates a primitive at the SAP boundary.
type Direction int

// Directions. FromUser primitives are submitted by the service user
// (e.g. request, free); ToUser primitives are delivered by the service
// provider (e.g. granted).
const (
	FromUser Direction = iota + 1
	ToUser
)

func (d Direction) String() string {
	switch d {
	case FromUser:
		return "from-user"
	case ToUser:
		return "to-user"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// ParamKind is the type of a primitive parameter.
type ParamKind int

// Parameter kinds supported by service specifications.
const (
	KindString ParamKind = iota + 1
	KindInt
	KindBool
	KindStringList
)

func (k ParamKind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindBool:
		return "bool"
	case KindStringList:
		return "list<string>"
	default:
		return fmt.Sprintf("ParamKind(%d)", int(k))
	}
}

// ParamDef declares one parameter of a service primitive.
type ParamDef struct {
	Name string
	Kind ParamKind
}

// PrimitiveDef declares a service primitive: its name, its direction at
// the SAP, and its parameters.
type PrimitiveDef struct {
	Name      string
	Direction Direction
	Params    []ParamDef
}

// Signature renders the primitive in the paper's interface style, e.g.
// "request(resid: string)".
func (p PrimitiveDef) Signature() string {
	parts := make([]string, len(p.Params))
	for i, param := range p.Params {
		parts[i] = param.Name + ": " + param.Kind.String()
	}
	return p.Name + "(" + strings.Join(parts, ", ") + ")"
}

// RoleDef declares a role users may play at SAPs (e.g. "subscriber").
type RoleDef struct {
	Name string
	// Min and Max bound how many SAPs of this role a deployment may have;
	// Max <= 0 means unbounded.
	Min, Max int
}

// SAP identifies a service access point. Per the paper, the user identity
// is implied by the SAP where a primitive is executed.
type SAP struct {
	Role string
	ID   string
}

func (s SAP) String() string { return s.Role + ":" + s.ID }

// Event records one primitive execution at a SAP at a virtual instant.
type Event struct {
	At        time.Duration
	SAP       SAP
	Primitive string
	// Params is read-only for every consumer (monitors, observers, trace
	// readers): producers may share one record across many events — the
	// floor-control workload hands out one record per resource — so a
	// mutation would rewrite every event sharing it. Copy before
	// modifying.
	Params codec.Record
}

// Label renders the event as an LTS label, parameters in sorted order:
// "granted@subscriber:s1(resid=r1)".
func (e Event) Label() string {
	keys := make([]string, 0, len(e.Params))
	for k := range e.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString(e.Primitive)
	sb.WriteByte('@')
	sb.WriteString(e.SAP.String())
	sb.WriteByte('(')
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%v", k, e.Params[k])
	}
	sb.WriteByte(')')
	return sb.String()
}

func (e Event) String() string {
	return fmt.Sprintf("%8v %s", e.At, e.Label())
}

// Trace is a time-ordered sequence of events.
type Trace []Event

// Labels projects the trace onto LTS labels.
func (t Trace) Labels() []string {
	out := make([]string, len(t))
	for i, e := range t {
		out[i] = e.Label()
	}
	return out
}

// Filter returns the sub-trace of events satisfying keep.
func (t Trace) Filter(keep func(Event) bool) Trace {
	var out Trace
	for _, e := range t {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}

// AtSAP returns the local sub-trace observed at one SAP.
func (t Trace) AtSAP(sap SAP) Trace {
	return t.Filter(func(e Event) bool { return e.SAP == sap })
}

// String renders the trace one event per line.
func (t Trace) String() string {
	var sb strings.Builder
	for _, e := range t {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Scope classifies a constraint as local (about the order of primitives at
// a single SAP) or remote (about the global relationship across SAPs).
type Scope int

// Constraint scopes, matching the paper's "local constraint" / "remote
// constraint" vocabulary in §4.2.
const (
	ScopeLocal Scope = iota + 1
	ScopeRemote
)

func (s Scope) String() string {
	switch s {
	case ScopeLocal:
		return "local"
	case ScopeRemote:
		return "remote"
	default:
		return fmt.Sprintf("Scope(%d)", int(s))
	}
}

// A Monitor checks one constraint online, event by event. Observe returns
// a non-nil error on a safety violation. AtEnd reports liveness violations
// outstanding when the observation window closes.
type Monitor interface {
	Observe(Event) error
	AtEnd() error
}

// Constraint is a named, scoped relationship between service primitives
// that every conforming implementation must maintain.
type Constraint interface {
	Name() string
	Scope() Scope
	Description() string
	// NewMonitor returns a fresh online checker for one execution.
	NewMonitor() Monitor
}

// ViolationError describes a constraint violation, carrying the violating
// event for diagnostics.
type ViolationError struct {
	Constraint string
	Event      *Event // nil for end-of-trace (liveness) violations
	Detail     string
}

func (v *ViolationError) Error() string {
	if v.Event != nil {
		return fmt.Sprintf("constraint %q violated by %s: %s", v.Constraint, v.Event.Label(), v.Detail)
	}
	return fmt.Sprintf("constraint %q violated at end of trace: %s", v.Constraint, v.Detail)
}

// AsViolation extracts a *ViolationError from err, if present.
func AsViolation(err error) (*ViolationError, bool) {
	var v *ViolationError
	ok := errors.As(err, &v)
	return v, ok
}
