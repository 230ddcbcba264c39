package sdl

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
)

// Document is the declarative form of a service definition: what the
// parser produces and the formatter consumes. Unlike core.ServiceSpec
// (whose constraints are opaque executable monitors), the Document keeps
// every clause introspectable, so definitions round-trip through Format.
type Document struct {
	Name        string
	Description string
	Roles       []RoleDecl
	Primitives  []PrimitiveDecl
	Constraints []ConstraintDecl
}

// RoleDecl declares a role with its cardinality; Max < 0 encodes "*".
type RoleDecl struct {
	Name string
	Min  int
	Max  int
}

// ParamDecl declares one primitive parameter.
type ParamDecl struct {
	Name string
	Kind core.ParamKind
}

// PrimitiveDecl declares a primitive with its direction.
type PrimitiveDecl struct {
	Name      string
	Params    []ParamDecl
	Direction core.Direction
}

// ConstraintForm enumerates the constraint clauses of the language.
type ConstraintForm int

// Constraint forms.
const (
	FormPrecedes ConstraintForm = iota + 1
	FormEventually
	FormMutex
	FormCapacity
	FormDeadline
	FormAbsent
)

// KeyDecl is a correlation-key clause: `key param <name>` or
// `key sap+param <name>`.
type KeyDecl struct {
	// WithSAP selects sap+param correlation (the usual local-constraint
	// shape).
	WithSAP bool
	Param   string
}

func (k KeyDecl) String() string {
	if k.WithSAP {
		return "sap+param " + k.Param
	}
	return "param " + k.Param
}

// compile produces the executable key function.
func (k KeyDecl) compile() core.KeyFunc {
	if k.WithSAP {
		return core.KeySAPAndParam(k.Param)
	}
	return core.KeyParam(k.Param)
}

// ConstraintDecl declares one constraint clause.
type ConstraintDecl struct {
	Name  string
	Scope core.Scope
	// Description is the optional quoted text after the name.
	Description string
	Form        ConstraintForm
	// First and Second are the two primitives of the clause:
	// precedes First -> Second, eventually First -> Second,
	// mutex acquire First release Second, absent Forbidden between
	// First and Second.
	First  string
	Second string
	// Forbidden is the excluded primitive of an absent clause.
	Forbidden string
	Key       KeyDecl
	// AllowMultiple permits re-triggering for precedes clauses
	// (`allow-multiple`).
	AllowMultiple bool
	// NonConsuming makes a precedes clause a pure precondition
	// (`non-consuming`): one trigger enables many occurrences.
	NonConsuming bool
	// Limit is the holder bound of a capacity clause.
	Limit int
	// Within is the response bound of a deadline clause.
	Within time.Duration
}

// compile produces the executable constraint.
func (c ConstraintDecl) compile() core.Constraint {
	switch c.Form {
	case FormPrecedes:
		return &core.Precedes{
			ConstraintName:   c.Name,
			ConstraintDesc:   c.Description,
			ScopeKind:        c.Scope,
			Trigger:          c.First,
			Enabled:          c.Second,
			Key:              c.Key.compile(),
			AllowPendingMany: c.AllowMultiple,
			NonConsuming:     c.NonConsuming,
		}
	case FormEventually:
		return &core.EventuallyFollows{
			ConstraintName: c.Name,
			ConstraintDesc: c.Description,
			ScopeKind:      c.Scope,
			Trigger:        c.First,
			Response:       c.Second,
			Key:            c.Key.compile(),
		}
	case FormMutex:
		return &core.MutualExclusion{
			ConstraintName: c.Name,
			ConstraintDesc: c.Description,
			Acquire:        c.First,
			Release:        c.Second,
			Key:            c.Key.compile(),
		}
	case FormCapacity:
		return &core.Capacity{
			ConstraintName: c.Name,
			ConstraintDesc: c.Description,
			Acquire:        c.First,
			Release:        c.Second,
			Key:            c.Key.compile(),
			Limit:          c.Limit,
		}
	case FormAbsent:
		return &core.Absence{
			ConstraintName: c.Name,
			ConstraintDesc: c.Description,
			ScopeKind:      c.Scope,
			Open:           c.First,
			Close:          c.Second,
			Forbidden:      c.Forbidden,
			Key:            c.Key.compile(),
		}
	case FormDeadline:
		return &core.Deadline{
			ConstraintName: c.Name,
			ConstraintDesc: c.Description,
			ScopeKind:      c.Scope,
			Trigger:        c.First,
			Response:       c.Second,
			Key:            c.Key.compile(),
			Within:         c.Within,
		}
	default:
		panic(fmt.Sprintf("sdl: unknown constraint form %d", int(c.Form)))
	}
}

// Compile lowers the document to an executable core.ServiceSpec and
// validates it.
func (d *Document) Compile() (*core.ServiceSpec, error) {
	spec := &core.ServiceSpec{
		Name:        d.Name,
		Description: d.Description,
	}
	for _, r := range d.Roles {
		max := r.Max
		if max < 0 {
			max = 0 // core encodes unbounded as 0
		}
		spec.Roles = append(spec.Roles, core.RoleDef{Name: r.Name, Min: r.Min, Max: max})
	}
	for _, p := range d.Primitives {
		def := core.PrimitiveDef{Name: p.Name, Direction: p.Direction}
		for _, param := range p.Params {
			def.Params = append(def.Params, core.ParamDef{Name: param.Name, Kind: param.Kind})
		}
		spec.Primitives = append(spec.Primitives, def)
	}
	for _, c := range d.Constraints {
		spec.Constraints = append(spec.Constraints, c.compile())
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	// Cross-check: constraints must reference declared primitives.
	for _, c := range d.Constraints {
		refs := []string{c.First, c.Second}
		if c.Forbidden != "" {
			refs = append(refs, c.Forbidden)
		}
		for _, prim := range refs {
			if _, ok := spec.Primitive(prim); !ok {
				return nil, fmt.Errorf("sdl: constraint %q references undeclared primitive %q", c.Name, prim)
			}
		}
	}
	return spec, nil
}

// Format renders the document in canonical SDL syntax; Parse(Format(d))
// reproduces d.
func Format(d *Document) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "service %s {\n", d.Name)
	if d.Description != "" {
		fmt.Fprintf(&sb, "  description %s\n", quoteSDL(d.Description))
	}
	if len(d.Roles) > 0 {
		sb.WriteByte('\n')
	}
	for _, r := range d.Roles {
		max := "*"
		if r.Max >= 0 {
			max = fmt.Sprintf("%d", r.Max)
		}
		fmt.Fprintf(&sb, "  role %s [%d..%s]\n", r.Name, r.Min, max)
	}
	if len(d.Primitives) > 0 {
		sb.WriteByte('\n')
	}
	for _, p := range d.Primitives {
		params := make([]string, len(p.Params))
		for i, param := range p.Params {
			params[i] = fmt.Sprintf("%s: %s", param.Name, kindName(param.Kind))
		}
		dir := "from-user"
		if p.Direction == core.ToUser {
			dir = "to-user"
		}
		fmt.Fprintf(&sb, "  primitive %s(%s) %s\n", p.Name, strings.Join(params, ", "), dir)
	}
	if len(d.Constraints) > 0 {
		sb.WriteByte('\n')
	}
	for _, c := range d.Constraints {
		scope := "local"
		if c.Scope == core.ScopeRemote {
			scope = "remote"
		}
		fmt.Fprintf(&sb, "  constraint %s %s", scope, c.Name)
		if c.Description != "" {
			sb.WriteString(" " + quoteSDL(c.Description))
		}
		sb.WriteString(":\n    ")
		switch c.Form {
		case FormPrecedes:
			fmt.Fprintf(&sb, "precedes %s -> %s key %s", c.First, c.Second, c.Key)
			if c.AllowMultiple {
				sb.WriteString(" allow-multiple")
			}
			if c.NonConsuming {
				sb.WriteString(" non-consuming")
			}
		case FormEventually:
			fmt.Fprintf(&sb, "eventually %s -> %s key %s", c.First, c.Second, c.Key)
		case FormMutex:
			fmt.Fprintf(&sb, "mutex acquire %s release %s key %s", c.First, c.Second, c.Key)
		case FormCapacity:
			fmt.Fprintf(&sb, "capacity %d acquire %s release %s key %s", c.Limit, c.First, c.Second, c.Key)
		case FormDeadline:
			fmt.Fprintf(&sb, "deadline %s -> %s within %s key %s", c.First, c.Second, formatDuration(c.Within), c.Key)
		case FormAbsent:
			fmt.Fprintf(&sb, "absent %s between %s and %s key %s", c.Forbidden, c.First, c.Second, c.Key)
		}
		sb.WriteByte('\n')
	}
	sb.WriteString("}\n")
	return sb.String()
}

// quoteSDL renders s as an SDL string literal using only the escapes the
// lexer understands (\", \\ and \n); every other byte passes through
// verbatim. strconv-style %q would emit escapes like \t or \x80 that do
// not reparse, breaking the Format round-trip guarantee.
func quoteSDL(s string) string {
	var sb strings.Builder
	sb.Grow(len(s) + 2)
	sb.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			sb.WriteString(`\"`)
		case '\\':
			sb.WriteString(`\\`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteByte(c)
		}
	}
	sb.WriteByte('"')
	return sb.String()
}

func kindName(k core.ParamKind) string {
	switch k {
	case core.KindString:
		return "string"
	case core.KindInt:
		return "int"
	case core.KindBool:
		return "bool"
	case core.KindStringList:
		return "list"
	default:
		return "string"
	}
}

// formatDuration renders a duration in the largest unit that divides it
// exactly (the SDL duration syntax: "<number> <unit>").
func formatDuration(d time.Duration) string {
	switch {
	case d%time.Second == 0:
		return fmt.Sprintf("%d s", d/time.Second)
	case d%time.Millisecond == 0:
		return fmt.Sprintf("%d ms", d/time.Millisecond)
	default:
		return fmt.Sprintf("%d us", d/time.Microsecond)
	}
}
