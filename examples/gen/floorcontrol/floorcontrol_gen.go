// Code generated by sdlgen from floorcontrol.svc. DO NOT EDIT.

// Package floorcontrol is the generated Go binding of the "floor-control" service
// definition: the validated core.ServiceSpec, a compiled codec.Schema per
// primitive parameter record, and typed direction-aware service ports
// over internal/svc.
package floorcontrol

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/middleware"
	"repro/internal/svc"
)

// ServiceName is the name of the source service definition.
const ServiceName = "floor-control"

// Role names.
const (
	RoleSubscriber = "subscriber"
)

// Primitive (wire operation) names.
const (
	PrimRequest = "request"
	PrimGranted = "granted"
	PrimFree    = "free"
)

// Compiled parameter-record schemas, one per primitive: the wire
// layout of each primitive's argument record on the invocation plane.
var (
	SchemaRequest = codec.CompileRecord("resid")
	SchemaGranted = codec.CompileRecord("resid")
	SchemaFree    = codec.CompileRecord("resid")
)

// Spec reconstructs the validated service specification.
func Spec() *core.ServiceSpec {
	return &core.ServiceSpec{
		Name:        ServiceName,
		Description: "coordinated, exclusive, non-preemptive access to named shared resources",
		Roles: []core.RoleDef{
			{Name: RoleSubscriber, Min: 2, Max: 0},
		},
		Primitives: []core.PrimitiveDef{
			{Name: PrimRequest, Direction: core.FromUser, Params: []core.ParamDef{
				{Name: "resid", Kind: core.KindString},
			}},
			{Name: PrimGranted, Direction: core.ToUser, Params: []core.ParamDef{
				{Name: "resid", Kind: core.KindString},
			}},
			{Name: PrimFree, Direction: core.FromUser, Params: []core.ParamDef{
				{Name: "resid", Kind: core.KindString},
			}},
		},
		Constraints: []core.Constraint{
			&core.Precedes{
				ConstraintName: "granted-follows-request",
				ConstraintDesc: "the execution of granted follows the execution of request (for a given resource identification)",
				ScopeKind:      core.ScopeLocal,
				Trigger:        PrimRequest,
				Enabled:        PrimGranted,
				Key:            core.KeySAPAndParam("resid"),
			},
			&core.Precedes{
				ConstraintName: "free-follows-granted",
				ConstraintDesc: "the execution of free follows the execution of granted (for a given resource identification)",
				ScopeKind:      core.ScopeLocal,
				Trigger:        PrimGranted,
				Enabled:        PrimFree,
				Key:            core.KeySAPAndParam("resid"),
			},
			&core.MutualExclusion{
				ConstraintName: "exclusive-grant",
				ConstraintDesc: "a resource is only granted to one subscriber at a time",
				Acquire:        PrimGranted,
				Release:        PrimFree,
				Key:            core.KeyParam("resid"),
			},
			&core.EventuallyFollows{
				ConstraintName: "request-eventually-granted",
				ConstraintDesc: "the execution of granted eventually follows the execution of request (liveness; subscribers are cooperative)",
				ScopeKind:      core.ScopeLocal,
				Trigger:        PrimRequest,
				Response:       PrimGranted,
				Key:            core.KeySAPAndParam("resid"),
			},
			&core.Absence{
				ConstraintName: "no-request-while-held",
				ConstraintDesc: "a subscriber does not re-request a resource it currently holds (cooperative use, §4)",
				ScopeKind:      core.ScopeLocal,
				Open:           PrimGranted,
				Close:          PrimFree,
				Forbidden:      PrimRequest,
				Key:            core.KeySAPAndParam("resid"),
			},
		},
	}
}

// Service declares the typed service, its spec validated by
// internal/svc.
func Service() (*svc.Service, error) {
	return svc.New(Spec())
}

// Bind declares the service and binds it to platform p.
func Bind(p *middleware.Platform, patterns ...middleware.Pattern) (*svc.Binding, error) {
	s, err := Service()
	if err != nil {
		return nil, err
	}
	return s.Bind(p, patterns...)
}

// Ack is the empty acknowledgement every handled primitive replies
// with (oneway deliveries elide it on the wire).
type Ack struct{}

// AppendAck appends an acknowledgement's wire form, the empty reply
// record, to buf.
func AppendAck(buf []byte, _ Ack) ([]byte, error) {
	return append(buf, codec.RawEmptyRecord...), nil
}

// DecodeAck decodes an acknowledgement reply record.
func DecodeAck(codec.MsgView) (Ack, error) {
	return Ack{}, nil
}

// RequestParams is the typed parameter record of primitive "request" (from-user).
type RequestParams struct {
	Resid string
}

// AppendRequestParams appends the wire form of p's parameter record to buf
// through the compiled schema. It is the argument encoder of the
// primitive's typed port or sink.
func AppendRequestParams(buf []byte, p RequestParams) ([]byte, error) {
	e := SchemaRequest.Encoder(buf)
	e.Str("resid", p.Resid)
	return e.Finish()
}

// DecodeRequestParams decodes a "request" parameter record from a view of its
// wire form, read by slot through SchemaRequest, copying what it keeps.
// Absent parameters decode to zero values; mistyped ones are rejected.
func DecodeRequestParams(v codec.MsgView) (RequestParams, error) {
	var sl codec.Slots
	SchemaRequest.Resolve(&v, &sl)
	var p RequestParams
	if s, ok := sl.StrAt(0); ok { // resid
		p.Resid = string(s)
	} else if sl.Has(0) {
		return p, fmt.Errorf("request: parameter %q: want string", "resid")
	}
	return p, nil
}

// NewRequestPort opens a typed RPC port for primitive "request": the user part
// submits RequestParams to the provider object and the continuation
// receives the acknowledgement.
func NewRequestPort(b *svc.Binding, target middleware.ObjRef) (*svc.Port[RequestParams, Ack], error) {
	return svc.NewPort(b, target, PrimRequest, AppendRequestParams, DecodeAck)
}

// HandleRequest registers the provider-side handler for primitive "request" on
// export e.
func HandleRequest(e *svc.Export, h func(RequestParams, func(Ack, error))) error {
	return svc.HandleOp(e, PrimRequest, DecodeRequestParams, AppendAck, h)
}

// GrantedParams is the typed parameter record of primitive "granted" (to-user).
type GrantedParams struct {
	Resid string
}

// AppendGrantedParams appends the wire form of p's parameter record to buf
// through the compiled schema. It is the argument encoder of the
// primitive's typed port or sink.
func AppendGrantedParams(buf []byte, p GrantedParams) ([]byte, error) {
	e := SchemaGranted.Encoder(buf)
	e.Str("resid", p.Resid)
	return e.Finish()
}

// DecodeGrantedParams decodes a "granted" parameter record from a view of its
// wire form, read by slot through SchemaGranted, copying what it keeps.
// Absent parameters decode to zero values; mistyped ones are rejected.
func DecodeGrantedParams(v codec.MsgView) (GrantedParams, error) {
	var sl codec.Slots
	SchemaGranted.Resolve(&v, &sl)
	var p GrantedParams
	if s, ok := sl.StrAt(0); ok { // resid
		p.Resid = string(s)
	} else if sl.Has(0) {
		return p, fmt.Errorf("granted: parameter %q: want string", "resid")
	}
	return p, nil
}

// NewGrantedSink opens a typed oneway sink for primitive "granted": the provider
// delivers GrantedParams to a user-part object without awaiting a reply.
func NewGrantedSink(b *svc.Binding, target middleware.ObjRef) (*svc.Sink[GrantedParams], error) {
	return svc.NewOnewaySink(b, target, PrimGranted, AppendGrantedParams)
}

// NewGrantedTopicSink opens a typed publisher of "granted" events on topic.
func NewGrantedTopicSink(b *svc.Binding, topic string) (*svc.Sink[GrantedParams], error) {
	return svc.NewTopicSink(b, topic, PrimGranted, AppendGrantedParams)
}

// NewGrantedTopicSource subscribes node to "granted" events on topic, delivering
// each event's decoded parameter record to fn.
func NewGrantedTopicSource(b *svc.Binding, topic string, node middleware.Addr, fn func(GrantedParams)) (*svc.Source[GrantedParams], error) {
	return svc.NewTopicSource(b, topic, node, DecodeGrantedParams, fn)
}

// HandleGranted registers the user-part handler for primitive "granted"
// deliveries on export e.
func HandleGranted(e *svc.Export, h func(GrantedParams, func(Ack, error))) error {
	return svc.HandleOp(e, PrimGranted, DecodeGrantedParams, AppendAck, h)
}

// FreeParams is the typed parameter record of primitive "free" (from-user).
type FreeParams struct {
	Resid string
}

// AppendFreeParams appends the wire form of p's parameter record to buf
// through the compiled schema. It is the argument encoder of the
// primitive's typed port or sink.
func AppendFreeParams(buf []byte, p FreeParams) ([]byte, error) {
	e := SchemaFree.Encoder(buf)
	e.Str("resid", p.Resid)
	return e.Finish()
}

// DecodeFreeParams decodes a "free" parameter record from a view of its
// wire form, read by slot through SchemaFree, copying what it keeps.
// Absent parameters decode to zero values; mistyped ones are rejected.
func DecodeFreeParams(v codec.MsgView) (FreeParams, error) {
	var sl codec.Slots
	SchemaFree.Resolve(&v, &sl)
	var p FreeParams
	if s, ok := sl.StrAt(0); ok { // resid
		p.Resid = string(s)
	} else if sl.Has(0) {
		return p, fmt.Errorf("free: parameter %q: want string", "resid")
	}
	return p, nil
}

// NewFreePort opens a typed RPC port for primitive "free": the user part
// submits FreeParams to the provider object and the continuation
// receives the acknowledgement.
func NewFreePort(b *svc.Binding, target middleware.ObjRef) (*svc.Port[FreeParams, Ack], error) {
	return svc.NewPort(b, target, PrimFree, AppendFreeParams, DecodeAck)
}

// HandleFree registers the provider-side handler for primitive "free" on
// export e.
func HandleFree(e *svc.Export, h func(FreeParams, func(Ack, error))) error {
	return svc.HandleOp(e, PrimFree, DecodeFreeParams, AppendAck, h)
}

// Provider is the provider face of the service: one handler per from-user
// primitive.
type Provider interface {
	// Request handles primitive "request".
	Request(RequestParams, func(Ack, error))
	// Free handles primitive "free".
	Free(FreeParams, func(Ack, error))
}

// ExportProvider hosts every from-user primitive of h as one platform object
// (ref, hosted at node) and registers it.
func ExportProvider(b *svc.Binding, ref middleware.ObjRef, node middleware.Addr, h Provider) (*svc.Export, error) {
	e, err := b.NewExport(ref, node)
	if err != nil {
		return nil, err
	}
	if err := HandleRequest(e, h.Request); err != nil {
		return nil, err
	}
	if err := HandleFree(e, h.Free); err != nil {
		return nil, err
	}
	if err := e.Register(); err != nil {
		return nil, err
	}
	return e, nil
}

// Consumer is the user-part face of the service: one handler per to-user
// primitive.
type Consumer interface {
	// Granted handles primitive "granted".
	Granted(GrantedParams, func(Ack, error))
}

// ExportConsumer hosts every to-user primitive of h as one platform object
// (ref, hosted at node) and registers it.
func ExportConsumer(b *svc.Binding, ref middleware.ObjRef, node middleware.Addr, h Consumer) (*svc.Export, error) {
	e, err := b.NewExport(ref, node)
	if err != nil {
		return nil, err
	}
	if err := HandleGranted(e, h.Granted); err != nil {
		return nil, err
	}
	if err := e.Register(); err != nil {
		return nil, err
	}
	return e, nil
}
