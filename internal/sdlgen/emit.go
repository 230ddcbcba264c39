package sdlgen

import (
	"bytes"
	"fmt"
	"go/format"
	"slices"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/sdl"
)

// Options configures one generation run.
type Options struct {
	// Package is the Go package name; empty derives it from the service
	// name (see PackageName).
	Package string
	// Source is the provenance label in the "Code generated ..." header.
	// Pass a base name (e.g. "floorcontrol.svc"): the emitted bytes must
	// not depend on the directory the generator was invoked from.
	Source string
}

// Generate compiles a document into the generated package source,
// gofmt-formatted. Output is a pure function of (document, options):
// byte-identical across runs, which the golden tests and the CI
// freshness gate rely on.
func Generate(doc *sdl.Document, opts Options) ([]byte, error) {
	m, err := Build(doc, opts.Package, opts.Source)
	if err != nil {
		return nil, err
	}
	return m.emit()
}

// emitter wraps the output buffer with printf helpers.
type emitter struct {
	buf bytes.Buffer
}

func (e *emitter) p(format string, args ...any) {
	fmt.Fprintf(&e.buf, format, args...)
	e.buf.WriteByte('\n')
}

func (e *emitter) emptyLine() { e.buf.WriteByte('\n') }

// needsFmt reports whether the generated file uses the fmt package:
// parameter decoders report type mismatches, and view decoders report
// missing payload records.
func (m *Model) needsFmt() bool {
	for _, p := range m.Primitives {
		if len(p.Params) > 0 || !p.FromUser {
			return true
		}
	}
	return false
}

// needsTime reports whether the generated file uses the time package
// (deadline constraints carry a duration literal).
func (m *Model) needsTime() bool {
	for _, c := range m.Constraints {
		if c.Form == sdl.FormDeadline {
			return true
		}
	}
	return false
}

func (m *Model) emit() ([]byte, error) {
	e := &emitter{}
	m.emitHeader(e)
	m.emitConsts(e)
	m.emitSpec(e)
	m.emitScaffolding(e)
	for _, p := range m.Primitives {
		m.emitPrimitive(e, p)
	}
	m.emitFaces(e)
	src, err := format.Source(e.buf.Bytes())
	if err != nil {
		// A format failure is a generator bug; return the raw text so the
		// golden test's diff shows where.
		return e.buf.Bytes(), fmt.Errorf("sdlgen: emitted source does not format: %w", err)
	}
	return src, nil
}

func (m *Model) emitHeader(e *emitter) {
	e.p("// Code generated by sdlgen from %s. DO NOT EDIT.", m.Source)
	e.emptyLine()
	e.p("// Package %s is the generated Go binding of the %q service", m.Package, m.ServiceName)
	e.p("// definition: the validated core.ServiceSpec, a compiled codec.Schema per")
	e.p("// primitive parameter record, and typed direction-aware service ports")
	e.p("// over internal/svc.")
	e.p("package %s", m.Package)
	e.emptyLine()
	e.p("import (")
	if m.needsFmt() {
		e.p("\t%q", "fmt")
	}
	if m.needsTime() {
		e.p("\t%q", "time")
	}
	if m.needsFmt() || m.needsTime() {
		e.emptyLine()
	}
	e.p("\t%q", "repro/internal/codec")
	e.p("\t%q", "repro/internal/core")
	e.p("\t%q", "repro/internal/middleware")
	e.p("\t%q", "repro/internal/svc")
	e.p(")")
	e.emptyLine()
}

func (m *Model) emitConsts(e *emitter) {
	e.p("// ServiceName is the name of the source service definition.")
	e.p("const ServiceName = %q", m.ServiceName)
	e.emptyLine()
	if len(m.Roles) > 0 {
		e.p("// Role names.")
		e.p("const (")
		for _, r := range m.Roles {
			e.p("\tRole%s = %q", r.Go, r.Decl.Name)
		}
		e.p(")")
		e.emptyLine()
	}
	e.p("// Primitive (wire operation) names.")
	e.p("const (")
	for _, p := range m.Primitives {
		e.p("\tPrim%s = %q", p.Go, p.Decl.Name)
	}
	e.p(")")
	e.emptyLine()
	e.p("// Compiled parameter-record schemas, one per primitive: the wire")
	e.p("// layout of each primitive's argument record on the invocation plane.")
	e.p("var (")
	for _, p := range m.Primitives {
		var args string
		for i, param := range p.Params {
			if i > 0 {
				args += ", "
			}
			args += fmt.Sprintf("%q", param.Decl.Name)
		}
		e.p("\tSchema%s = codec.CompileRecord(%s)", p.Go, args)
	}
	e.p(")")
	e.emptyLine()
}

func (m *Model) emitSpec(e *emitter) {
	e.p("// Spec reconstructs the validated service specification.")
	e.p("func Spec() *core.ServiceSpec {")
	e.p("\treturn &core.ServiceSpec{")
	e.p("\t\tName:        ServiceName,")
	if m.Description != "" {
		e.p("\t\tDescription: %q,", m.Description)
	}
	if len(m.Roles) > 0 {
		e.p("\t\tRoles: []core.RoleDef{")
		for _, r := range m.Roles {
			max := r.Decl.Max
			if max < 0 {
				max = 0 // core encodes unbounded as 0
			}
			e.p("\t\t\t{Name: Role%s, Min: %d, Max: %d},", r.Go, r.Decl.Min, max)
		}
		e.p("\t\t},")
	}
	e.p("\t\tPrimitives: []core.PrimitiveDef{")
	for _, p := range m.Primitives {
		dir := "core.FromUser"
		if !p.FromUser {
			dir = "core.ToUser"
		}
		if len(p.Params) == 0 {
			e.p("\t\t\t{Name: Prim%s, Direction: %s},", p.Go, dir)
			continue
		}
		e.p("\t\t\t{Name: Prim%s, Direction: %s, Params: []core.ParamDef{", p.Go, dir)
		for _, param := range p.Params {
			e.p("\t\t\t\t{Name: %q, Kind: core.%s},", param.Decl.Name, coreKind(param.Decl.Kind))
		}
		e.p("\t\t\t}},")
	}
	e.p("\t\t},")
	if len(m.Constraints) > 0 {
		e.p("\t\tConstraints: []core.Constraint{")
		for _, c := range m.Constraints {
			m.emitConstraint(e, c)
		}
		e.p("\t\t},")
	}
	e.p("\t}")
	e.p("}")
	e.emptyLine()
}

func (m *Model) emitConstraint(e *emitter, c sdl.ConstraintDecl) {
	// The core type of each form and the fields its two primitives fill.
	var typ, first, second string
	switch c.Form {
	case sdl.FormPrecedes:
		typ, first, second = "Precedes", "Trigger", "Enabled"
	case sdl.FormEventually:
		typ, first, second = "EventuallyFollows", "Trigger", "Response"
	case sdl.FormMutex:
		typ, first, second = "MutualExclusion", "Acquire", "Release"
	case sdl.FormCapacity:
		typ, first, second = "Capacity", "Acquire", "Release"
	case sdl.FormDeadline:
		typ, first, second = "Deadline", "Trigger", "Response"
	case sdl.FormAbsent:
		typ, first, second = "Absence", "Open", "Close"
	}
	e.p("\t\t\t&core.%s{", typ)
	e.p("\t\t\t\tConstraintName: %q,", c.Name)
	if c.Description != "" {
		e.p("\t\t\t\tConstraintDesc: %q,", c.Description)
	}
	if c.Form != sdl.FormMutex && c.Form != sdl.FormCapacity { // remote by nature
		scope := "core.ScopeLocal"
		if c.Scope == core.ScopeRemote {
			scope = "core.ScopeRemote"
		}
		e.p("\t\t\t\tScopeKind: %s,", scope)
	}
	e.p("\t\t\t\t%s: %s,", first, m.primConst(c.First))
	e.p("\t\t\t\t%s: %s,", second, m.primConst(c.Second))
	if c.Form == sdl.FormAbsent {
		e.p("\t\t\t\tForbidden: %s,", m.primConst(c.Forbidden))
	}
	key := fmt.Sprintf("core.KeyParam(%q)", c.Key.Param)
	if c.Key.WithSAP {
		key = fmt.Sprintf("core.KeySAPAndParam(%q)", c.Key.Param)
	}
	e.p("\t\t\t\tKey: %s,", key)
	switch {
	case c.AllowMultiple:
		e.p("\t\t\t\tAllowPendingMany: true,")
	case c.Form == sdl.FormCapacity:
		e.p("\t\t\t\tLimit: %d,", c.Limit)
	case c.Form == sdl.FormDeadline:
		e.p("\t\t\t\tWithin: %s,", goDuration(c.Within))
	}
	if c.NonConsuming {
		e.p("\t\t\t\tNonConsuming: true,")
	}
	e.p("\t\t\t},")
}

func (m *Model) emitScaffolding(e *emitter) {
	e.p("// Service declares the typed service, its spec validated by")
	e.p("// internal/svc.")
	e.p("func Service() (*svc.Service, error) {")
	e.p("\treturn svc.New(Spec())")
	e.p("}")
	e.emptyLine()
	e.p("// Bind declares the service and binds it to platform p.")
	e.p("func Bind(p *middleware.Platform, patterns ...middleware.Pattern) (*svc.Binding, error) {")
	e.p("\ts, err := Service()")
	e.p("\tif err != nil {")
	e.p("\t\treturn nil, err")
	e.p("\t}")
	e.p("\treturn s.Bind(p, patterns...)")
	e.p("}")
	e.emptyLine()
	e.p("// Ack is the empty acknowledgement every handled primitive replies")
	e.p("// with (oneway deliveries elide it on the wire).")
	e.p("type Ack struct{}")
	e.emptyLine()
	e.p("// AppendAck appends an acknowledgement's wire form, the empty reply")
	e.p("// record, to buf.")
	e.p("func AppendAck(buf []byte, _ Ack) ([]byte, error) {")
	e.p("\treturn append(buf, codec.RawEmptyRecord...), nil")
	e.p("}")
	e.emptyLine()
	e.p("// DecodeAck decodes an acknowledgement reply record.")
	e.p("func DecodeAck(codec.MsgView) (Ack, error) {")
	e.p("\treturn Ack{}, nil")
	e.p("}")
	e.emptyLine()
}

func (m *Model) emitPrimitive(e *emitter, p Primitive) {
	dir := "from-user"
	if !p.FromUser {
		dir = "to-user"
	}
	name := p.Decl.Name

	// Typed parameter struct.
	e.p("// %sParams is the typed parameter record of primitive %q (%s).", p.Go, name, dir)
	if len(p.Params) == 0 {
		e.p("type %sParams struct{}", p.Go)
	} else {
		e.p("type %sParams struct {", p.Go)
		for _, param := range p.Params {
			e.p("\t%s %s", param.Go, goType(param.Decl.Kind))
		}
		e.p("}")
	}
	e.emptyLine()

	// Schema wire encoder (canonical field order is the schema's sorted
	// order, not declaration order).
	e.p("// Append%sParams appends the wire form of p's parameter record to buf", p.Go)
	e.p("// through the compiled schema. It is the argument encoder of the")
	e.p("// primitive's typed port or sink.")
	if len(p.Params) == 0 {
		e.p("func Append%sParams(buf []byte, _ %sParams) ([]byte, error) {", p.Go, p.Go)
		e.p("\te := Schema%s.Encoder(buf)", p.Go)
	} else {
		e.p("func Append%sParams(buf []byte, p %sParams) ([]byte, error) {", p.Go, p.Go)
		e.p("\te := Schema%s.Encoder(buf)", p.Go)
		for _, param := range sortedParams(p.Params) {
			pn := param.Decl.Name
			switch param.Decl.Kind {
			case core.KindInt:
				e.p("\te.Int(%q, p.%s)", pn, param.Go)
			case core.KindBool:
				e.p("\te.Bool(%q, p.%s)", pn, param.Go)
			case core.KindStringList:
				e.p("\te.Strings(%q, p.%s)", pn, param.Go)
			default:
				e.p("\te.Str(%q, p.%s)", pn, param.Go)
			}
		}
	}
	e.p("\treturn e.Finish()")
	e.p("}")
	e.emptyLine()

	// Slot decoder: the schema's slots are its fields in canonical order.
	e.p("// Decode%sParams decodes a %q parameter record from a view of its", p.Go, name)
	e.p("// wire form, read by slot through Schema%s, copying what it keeps.", p.Go)
	e.p("// Absent parameters decode to zero values; mistyped ones are rejected.")
	if len(p.Params) == 0 {
		e.p("func Decode%sParams(codec.MsgView) (%sParams, error) {", p.Go, p.Go)
		e.p("\treturn %sParams{}, nil", p.Go)
		e.p("}")
	} else {
		e.p("func Decode%sParams(v codec.MsgView) (%sParams, error) {", p.Go, p.Go)
		e.p("\tvar sl codec.Slots")
		e.p("\tSchema%s.Resolve(&v, &sl)", p.Go)
		e.p("\tvar p %sParams", p.Go)
		sorted := sortedParams(p.Params)
		for _, param := range p.Params {
			pn := param.Decl.Name
			slot := slices.IndexFunc(sorted, func(q Param) bool { return q.Decl.Name == pn })
			switch param.Decl.Kind {
			case core.KindInt:
				e.p("\tif n, ok := sl.IntAt(%d); ok { // %s", slot, pn)
				e.p("\t\tp.%s = n", param.Go)
			case core.KindBool:
				e.p("\tif b, ok := sl.BoolAt(%d); ok { // %s", slot, pn)
				e.p("\t\tp.%s = b", param.Go)
			case core.KindStringList:
				e.p("\tif xs, ok := sl.StringsAt(%d, nil); ok { // %s", slot, pn)
				e.p("\t\tp.%s = xs", param.Go)
			default:
				e.p("\tif s, ok := sl.StrAt(%d); ok { // %s", slot, pn)
				e.p("\t\tp.%s = string(s)", param.Go)
			}
			e.p("\t} else if sl.Has(%d) {", slot)
			e.p("\t\treturn p, fmt.Errorf(\"%s: parameter %%q: want %s\", %q)", name, kindLabel(param.Decl.Kind), pn)
			e.p("\t}")
		}
		e.p("\treturn p, nil")
		e.p("}")
	}
	e.emptyLine()

	if p.FromUser {
		e.p("// New%sPort opens a typed RPC port for primitive %q: the user part", p.Go, name)
		e.p("// submits %sParams to the provider object and the continuation", p.Go)
		e.p("// receives the acknowledgement.")
		e.p("func New%sPort(b *svc.Binding, target middleware.ObjRef) (*svc.Port[%sParams, Ack], error) {", p.Go, p.Go)
		e.p("\treturn svc.NewPort(b, target, Prim%s, Append%sParams, DecodeAck)", p.Go, p.Go)
		e.p("}")
		e.emptyLine()
		e.p("// Handle%s registers the provider-side handler for primitive %q on", p.Go, name)
		e.p("// export e.")
	} else {
		e.p("// New%sSink opens a typed oneway sink for primitive %q: the provider", p.Go, name)
		e.p("// delivers %sParams to a user-part object without awaiting a reply.", p.Go)
		e.p("func New%sSink(b *svc.Binding, target middleware.ObjRef) (*svc.Sink[%sParams], error) {", p.Go, p.Go)
		e.p("\treturn svc.NewOnewaySink(b, target, Prim%s, Append%sParams)", p.Go, p.Go)
		e.p("}")
		e.emptyLine()
		e.p("// New%sTopicSink opens a typed publisher of %q events on topic.", p.Go, name)
		e.p("func New%sTopicSink(b *svc.Binding, topic string) (*svc.Sink[%sParams], error) {", p.Go, p.Go)
		e.p("\treturn svc.NewTopicSink(b, topic, Prim%s, Append%sParams)", p.Go, p.Go)
		e.p("}")
		e.emptyLine()
		e.p("// New%sTopicSource subscribes node to %q events on topic, delivering", p.Go, name)
		e.p("// each event's decoded parameter record to fn.")
		e.p("func New%sTopicSource(b *svc.Binding, topic string, node middleware.Addr, fn func(%sParams)) (*svc.Source[%sParams], error) {", p.Go, p.Go, p.Go)
		e.p("\treturn svc.NewTopicSource(b, topic, node, Decode%sParams, fn)", p.Go)
		e.p("}")
		e.emptyLine()
		e.p("// Handle%s registers the user-part handler for primitive %q", p.Go, name)
		e.p("// deliveries on export e.")
	}
	e.p("func Handle%s(e *svc.Export, h func(%sParams, func(Ack, error))) error {", p.Go, p.Go)
	e.p("\treturn svc.HandleOp(e, Prim%s, Decode%sParams, AppendAck, h)", p.Go, p.Go)
	e.p("}")
	e.emptyLine()
}

func (m *Model) emitFaces(e *emitter) {
	m.emitFace(e, "Provider", "ExportProvider", "provider", "from-user", m.FromUser())
	m.emitFace(e, "Consumer", "ExportConsumer", "user-part", "to-user", m.ToUser())
}

// emitFace emits one direction's handler interface and its one-object
// export helper.
func (m *Model) emitFace(e *emitter, iface, export, side, dir string, prims []Primitive) {
	if len(prims) == 0 {
		return
	}
	e.p("// %s is the %s face of the service: one handler per %s", iface, side, dir)
	e.p("// primitive.")
	e.p("type %s interface {", iface)
	for _, p := range prims {
		e.p("\t// %s handles primitive %q.", p.Go, p.Decl.Name)
		e.p("\t%s(%sParams, func(Ack, error))", p.Go, p.Go)
	}
	e.p("}")
	e.emptyLine()
	e.p("// %s hosts every %s primitive of h as one platform object", export, dir)
	e.p("// (ref, hosted at node) and registers it.")
	e.p("func %s(b *svc.Binding, ref middleware.ObjRef, node middleware.Addr, h %s) (*svc.Export, error) {", export, iface)
	e.p("\te, err := b.NewExport(ref, node)")
	e.p("\tif err != nil {")
	e.p("\t\treturn nil, err")
	e.p("\t}")
	for _, p := range prims {
		e.p("\tif err := Handle%s(e, h.%s); err != nil {", p.Go, p.Go)
		e.p("\t\treturn nil, err")
		e.p("\t}")
	}
	e.p("\tif err := e.Register(); err != nil {")
	e.p("\t\treturn nil, err")
	e.p("\t}")
	e.p("\treturn e, nil")
	e.p("}")
	e.emptyLine()
}

// sortedParams returns the parameters in the schema's canonical (sorted
// by wire name) order.
func sortedParams(params []Param) []Param {
	out := append([]Param(nil), params...)
	sort.Slice(out, func(i, j int) bool { return out[i].Decl.Name < out[j].Decl.Name })
	return out
}

// coreKind names a core.ParamKind constant.
func coreKind(k core.ParamKind) string {
	switch k {
	case core.KindInt:
		return "KindInt"
	case core.KindBool:
		return "KindBool"
	case core.KindStringList:
		return "KindStringList"
	default:
		return "KindString"
	}
}

// goDuration renders a duration as a Go expression in the largest unit
// that divides it exactly, mirroring the SDL surface syntax.
func goDuration(d time.Duration) string {
	switch {
	case d == 0:
		return "0"
	case d%time.Second == 0:
		return fmt.Sprintf("%d * time.Second", d/time.Second)
	case d%time.Millisecond == 0:
		return fmt.Sprintf("%d * time.Millisecond", d/time.Millisecond)
	default:
		return fmt.Sprintf("%d * time.Microsecond", d/time.Microsecond)
	}
}
