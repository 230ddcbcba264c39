// Code generated by sdlgen from allkinds.svc. DO NOT EDIT.

// Package allkinds is the generated Go binding of the "all-kinds" service
// definition: the validated core.ServiceSpec, a compiled codec.Schema per
// primitive parameter record, and typed direction-aware service ports
// over internal/svc.
package allkinds

import (
	"fmt"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/middleware"
	"repro/internal/svc"
)

// ServiceName is the name of the source service definition.
const ServiceName = "all-kinds"

// Role names.
const (
	RoleProducer = "producer"
	RoleConsumer = "consumer"
)

// Primitive (wire operation) names.
const (
	PrimOpen   = "open"
	PrimOpened = "opened"
	PrimClose  = "close"
	PrimPing   = "ping"
)

// Compiled parameter-record schemas, one per primitive: the wire
// layout of each primitive's argument record on the invocation plane.
var (
	SchemaOpen   = codec.CompileRecord("id", "seq", "urgent", "tags")
	SchemaOpened = codec.CompileRecord("id", "seq")
	SchemaClose  = codec.CompileRecord("id")
	SchemaPing   = codec.CompileRecord()
)

// Spec reconstructs the validated service specification.
func Spec() *core.ServiceSpec {
	return &core.ServiceSpec{
		Name:        ServiceName,
		Description: "session service exercising every kind and constraint form",
		Roles: []core.RoleDef{
			{Name: RoleProducer, Min: 1, Max: 1},
			{Name: RoleConsumer, Min: 0, Max: 0},
		},
		Primitives: []core.PrimitiveDef{
			{Name: PrimOpen, Direction: core.FromUser, Params: []core.ParamDef{
				{Name: "id", Kind: core.KindString},
				{Name: "seq", Kind: core.KindInt},
				{Name: "urgent", Kind: core.KindBool},
				{Name: "tags", Kind: core.KindStringList},
			}},
			{Name: PrimOpened, Direction: core.ToUser, Params: []core.ParamDef{
				{Name: "id", Kind: core.KindString},
				{Name: "seq", Kind: core.KindInt},
			}},
			{Name: PrimClose, Direction: core.FromUser, Params: []core.ParamDef{
				{Name: "id", Kind: core.KindString},
			}},
			{Name: PrimPing, Direction: core.FromUser},
		},
		Constraints: []core.Constraint{
			&core.Precedes{
				ConstraintName:   "opened-follows-open",
				ScopeKind:        core.ScopeLocal,
				Trigger:          PrimOpen,
				Enabled:          PrimOpened,
				Key:              core.KeySAPAndParam("id"),
				AllowPendingMany: true,
			},
			&core.Precedes{
				ConstraintName: "close-follows-open",
				ScopeKind:      core.ScopeLocal,
				Trigger:        PrimOpen,
				Enabled:        PrimClose,
				Key:            core.KeyParam("id"),
				NonConsuming:   true,
			},
			&core.Capacity{
				ConstraintName: "bounded-sessions",
				Acquire:        PrimOpen,
				Release:        PrimClose,
				Key:            core.KeyParam("id"),
				Limit:          2,
			},
			&core.Deadline{
				ConstraintName: "opened-within-deadline",
				ScopeKind:      core.ScopeLocal,
				Trigger:        PrimOpen,
				Response:       PrimOpened,
				Key:            core.KeySAPAndParam("id"),
				Within:         750 * time.Millisecond,
			},
			&core.EventuallyFollows{
				ConstraintName: "open-eventually-closed",
				ScopeKind:      core.ScopeLocal,
				Trigger:        PrimOpen,
				Response:       PrimClose,
				Key:            core.KeyParam("id"),
			},
			&core.Absence{
				ConstraintName: "no-reopen-while-open",
				ScopeKind:      core.ScopeLocal,
				Open:           PrimOpened,
				Close:          PrimClose,
				Forbidden:      PrimOpen,
				Key:            core.KeyParam("id"),
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

// OpenParams is the typed parameter record of primitive "open" (from-user).
type OpenParams struct {
	Id     string
	Seq    int64
	Urgent bool
	Tags   []string
}

// AppendOpenParams appends the wire form of p's parameter record to buf
// through the compiled schema. It is the argument encoder of the
// primitive's typed port or sink.
func AppendOpenParams(buf []byte, p OpenParams) ([]byte, error) {
	e := SchemaOpen.Encoder(buf)
	e.Str("id", p.Id)
	e.Int("seq", p.Seq)
	e.Strings("tags", p.Tags)
	e.Bool("urgent", p.Urgent)
	return e.Finish()
}

// DecodeOpenParams decodes a "open" parameter record from a view of its
// wire form, read by slot through SchemaOpen, copying what it keeps.
// Absent parameters decode to zero values; mistyped ones are rejected.
func DecodeOpenParams(v codec.MsgView) (OpenParams, error) {
	var sl codec.Slots
	SchemaOpen.Resolve(&v, &sl)
	var p OpenParams
	if s, ok := sl.StrAt(0); ok { // id
		p.Id = string(s)
	} else if sl.Has(0) {
		return p, fmt.Errorf("open: parameter %q: want string", "id")
	}
	if n, ok := sl.IntAt(1); ok { // seq
		p.Seq = n
	} else if sl.Has(1) {
		return p, fmt.Errorf("open: parameter %q: want int", "seq")
	}
	if b, ok := sl.BoolAt(3); ok { // urgent
		p.Urgent = b
	} else if sl.Has(3) {
		return p, fmt.Errorf("open: parameter %q: want bool", "urgent")
	}
	if xs, ok := sl.StringsAt(2, nil); ok { // tags
		p.Tags = xs
	} else if sl.Has(2) {
		return p, fmt.Errorf("open: parameter %q: want list of strings", "tags")
	}
	return p, nil
}

// NewOpenPort opens a typed RPC port for primitive "open": the user part
// submits OpenParams to the provider object and the continuation
// receives the acknowledgement.
func NewOpenPort(b *svc.Binding, target middleware.ObjRef) (*svc.Port[OpenParams, Ack], error) {
	return svc.NewPort(b, target, PrimOpen, AppendOpenParams, DecodeAck)
}

// HandleOpen registers the provider-side handler for primitive "open" on
// export e.
func HandleOpen(e *svc.Export, h func(OpenParams, func(Ack, error))) error {
	return svc.HandleOp(e, PrimOpen, DecodeOpenParams, AppendAck, h)
}

// OpenedParams is the typed parameter record of primitive "opened" (to-user).
type OpenedParams struct {
	Id  string
	Seq int64
}

// AppendOpenedParams appends the wire form of p's parameter record to buf
// through the compiled schema. It is the argument encoder of the
// primitive's typed port or sink.
func AppendOpenedParams(buf []byte, p OpenedParams) ([]byte, error) {
	e := SchemaOpened.Encoder(buf)
	e.Str("id", p.Id)
	e.Int("seq", p.Seq)
	return e.Finish()
}

// DecodeOpenedParams decodes a "opened" parameter record from a view of its
// wire form, read by slot through SchemaOpened, copying what it keeps.
// Absent parameters decode to zero values; mistyped ones are rejected.
func DecodeOpenedParams(v codec.MsgView) (OpenedParams, error) {
	var sl codec.Slots
	SchemaOpened.Resolve(&v, &sl)
	var p OpenedParams
	if s, ok := sl.StrAt(0); ok { // id
		p.Id = string(s)
	} else if sl.Has(0) {
		return p, fmt.Errorf("opened: parameter %q: want string", "id")
	}
	if n, ok := sl.IntAt(1); ok { // seq
		p.Seq = n
	} else if sl.Has(1) {
		return p, fmt.Errorf("opened: parameter %q: want int", "seq")
	}
	return p, nil
}

// NewOpenedSink opens a typed oneway sink for primitive "opened": the provider
// delivers OpenedParams to a user-part object without awaiting a reply.
func NewOpenedSink(b *svc.Binding, target middleware.ObjRef) (*svc.Sink[OpenedParams], error) {
	return svc.NewOnewaySink(b, target, PrimOpened, AppendOpenedParams)
}

// NewOpenedTopicSink opens a typed publisher of "opened" events on topic.
func NewOpenedTopicSink(b *svc.Binding, topic string) (*svc.Sink[OpenedParams], error) {
	return svc.NewTopicSink(b, topic, PrimOpened, AppendOpenedParams)
}

// NewOpenedTopicSource subscribes node to "opened" events on topic, delivering
// each event's decoded parameter record to fn.
func NewOpenedTopicSource(b *svc.Binding, topic string, node middleware.Addr, fn func(OpenedParams)) (*svc.Source[OpenedParams], error) {
	return svc.NewTopicSource(b, topic, node, DecodeOpenedParams, fn)
}

// HandleOpened registers the user-part handler for primitive "opened"
// deliveries on export e.
func HandleOpened(e *svc.Export, h func(OpenedParams, func(Ack, error))) error {
	return svc.HandleOp(e, PrimOpened, DecodeOpenedParams, AppendAck, h)
}

// CloseParams is the typed parameter record of primitive "close" (from-user).
type CloseParams struct {
	Id string
}

// AppendCloseParams appends the wire form of p's parameter record to buf
// through the compiled schema. It is the argument encoder of the
// primitive's typed port or sink.
func AppendCloseParams(buf []byte, p CloseParams) ([]byte, error) {
	e := SchemaClose.Encoder(buf)
	e.Str("id", p.Id)
	return e.Finish()
}

// DecodeCloseParams decodes a "close" parameter record from a view of its
// wire form, read by slot through SchemaClose, copying what it keeps.
// Absent parameters decode to zero values; mistyped ones are rejected.
func DecodeCloseParams(v codec.MsgView) (CloseParams, error) {
	var sl codec.Slots
	SchemaClose.Resolve(&v, &sl)
	var p CloseParams
	if s, ok := sl.StrAt(0); ok { // id
		p.Id = string(s)
	} else if sl.Has(0) {
		return p, fmt.Errorf("close: parameter %q: want string", "id")
	}
	return p, nil
}

// NewClosePort opens a typed RPC port for primitive "close": the user part
// submits CloseParams to the provider object and the continuation
// receives the acknowledgement.
func NewClosePort(b *svc.Binding, target middleware.ObjRef) (*svc.Port[CloseParams, Ack], error) {
	return svc.NewPort(b, target, PrimClose, AppendCloseParams, DecodeAck)
}

// HandleClose registers the provider-side handler for primitive "close" on
// export e.
func HandleClose(e *svc.Export, h func(CloseParams, func(Ack, error))) error {
	return svc.HandleOp(e, PrimClose, DecodeCloseParams, AppendAck, h)
}

// PingParams is the typed parameter record of primitive "ping" (from-user).
type PingParams struct{}

// AppendPingParams appends the wire form of p's parameter record to buf
// through the compiled schema. It is the argument encoder of the
// primitive's typed port or sink.
func AppendPingParams(buf []byte, _ PingParams) ([]byte, error) {
	e := SchemaPing.Encoder(buf)
	return e.Finish()
}

// DecodePingParams decodes a "ping" parameter record from a view of its
// wire form, read by slot through SchemaPing, copying what it keeps.
// Absent parameters decode to zero values; mistyped ones are rejected.
func DecodePingParams(codec.MsgView) (PingParams, error) {
	return PingParams{}, nil
}

// NewPingPort opens a typed RPC port for primitive "ping": the user part
// submits PingParams to the provider object and the continuation
// receives the acknowledgement.
func NewPingPort(b *svc.Binding, target middleware.ObjRef) (*svc.Port[PingParams, Ack], error) {
	return svc.NewPort(b, target, PrimPing, AppendPingParams, DecodeAck)
}

// HandlePing registers the provider-side handler for primitive "ping" on
// export e.
func HandlePing(e *svc.Export, h func(PingParams, func(Ack, error))) error {
	return svc.HandleOp(e, PrimPing, DecodePingParams, AppendAck, h)
}

// Provider is the provider face of the service: one handler per from-user
// primitive.
type Provider interface {
	// Open handles primitive "open".
	Open(OpenParams, func(Ack, error))
	// Close handles primitive "close".
	Close(CloseParams, func(Ack, error))
	// Ping handles primitive "ping".
	Ping(PingParams, func(Ack, error))
}

// ExportProvider hosts every from-user primitive of h as one platform object
// (ref, hosted at node) and registers it.
func ExportProvider(b *svc.Binding, ref middleware.ObjRef, node middleware.Addr, h Provider) (*svc.Export, error) {
	e, err := b.NewExport(ref, node)
	if err != nil {
		return nil, err
	}
	if err := HandleOpen(e, h.Open); err != nil {
		return nil, err
	}
	if err := HandleClose(e, h.Close); err != nil {
		return nil, err
	}
	if err := HandlePing(e, h.Ping); err != nil {
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
	// Opened handles primitive "opened".
	Opened(OpenedParams, func(Ack, error))
}

// ExportConsumer hosts every to-user primitive of h as one platform object
// (ref, hosted at node) and registers it.
func ExportConsumer(b *svc.Binding, ref middleware.ObjRef, node middleware.Addr, h Consumer) (*svc.Export, error) {
	e, err := b.NewExport(ref, node)
	if err != nil {
		return nil, err
	}
	if err := HandleOpened(e, h.Opened); err != nil {
		return nil, err
	}
	if err := e.Register(); err != nil {
		return nil, err
	}
	return e, nil
}
