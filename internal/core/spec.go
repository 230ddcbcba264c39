package core

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/codec"
)

// Validation errors.
var (
	ErrUnknownPrimitive = errors.New("core: unknown primitive")
	ErrUnknownRole      = errors.New("core: unknown role")
	ErrBadParams        = errors.New("core: primitive parameters do not match declaration")
)

// ServiceSpec is a complete service definition: the paper's "service
// definition" milestone (Figure 11). It is the platform-independent — and,
// per §6.1, *paradigm-independent* — reference point of the design
// trajectory.
type ServiceSpec struct {
	Name        string
	Description string
	Roles       []RoleDef
	Primitives  []PrimitiveDef
	Constraints []Constraint
}

// Validate checks internal consistency of the specification itself.
func (s *ServiceSpec) Validate() error {
	if s.Name == "" {
		return errors.New("core: service spec must be named")
	}
	if len(s.Primitives) == 0 {
		return fmt.Errorf("core: service %q declares no primitives", s.Name)
	}
	seenPrim := make(map[string]struct{}, len(s.Primitives))
	for _, p := range s.Primitives {
		if p.Name == "" {
			return fmt.Errorf("core: service %q has unnamed primitive", s.Name)
		}
		if _, dup := seenPrim[p.Name]; dup {
			return fmt.Errorf("core: service %q declares primitive %q twice", s.Name, p.Name)
		}
		seenPrim[p.Name] = struct{}{}
		if p.Direction != FromUser && p.Direction != ToUser {
			return fmt.Errorf("core: primitive %q has invalid direction", p.Name)
		}
		if err := p.validateParams(); err != nil {
			return err
		}
	}
	seenRole := make(map[string]struct{}, len(s.Roles))
	for _, r := range s.Roles {
		if r.Name == "" {
			return fmt.Errorf("core: service %q has unnamed role", s.Name)
		}
		if _, dup := seenRole[r.Name]; dup {
			return fmt.Errorf("core: service %q declares role %q twice", s.Name, r.Name)
		}
		seenRole[r.Name] = struct{}{}
		if r.Max > 0 && r.Min > r.Max {
			return fmt.Errorf("core: role %q has min %d > max %d", r.Name, r.Min, r.Max)
		}
	}
	seenCon := make(map[string]struct{}, len(s.Constraints))
	for _, c := range s.Constraints {
		if c == nil {
			return fmt.Errorf("core: service %q has nil constraint", s.Name)
		}
		if _, dup := seenCon[c.Name()]; dup {
			return fmt.Errorf("core: service %q declares constraint %q twice", s.Name, c.Name())
		}
		seenCon[c.Name()] = struct{}{}
	}
	return nil
}

// validateParams checks that every parameter of p can be read by slot:
// named, declared once, at most codec.MaxSlots of them.
func (p PrimitiveDef) validateParams() error {
	if len(p.Params) > codec.MaxSlots {
		return fmt.Errorf("core: primitive %q declares %d parameters, more than %d", p.Name, len(p.Params), codec.MaxSlots)
	}
	seenParam := make(map[string]struct{}, len(p.Params))
	for _, param := range p.Params {
		if param.Name == "" {
			return fmt.Errorf("core: primitive %q has unnamed parameter", p.Name)
		}
		if _, dup := seenParam[param.Name]; dup {
			return fmt.Errorf("core: primitive %q declares parameter %q twice", p.Name, param.Name)
		}
		seenParam[param.Name] = struct{}{}
	}
	return nil
}

// Primitive looks up a primitive declaration by name.
func (s *ServiceSpec) Primitive(name string) (PrimitiveDef, bool) {
	for _, p := range s.Primitives {
		if p.Name == name {
			return p, true
		}
	}
	return PrimitiveDef{}, false
}

// Role looks up a role declaration by name.
func (s *ServiceSpec) Role(name string) (RoleDef, bool) {
	for _, r := range s.Roles {
		if r.Name == name {
			return r, true
		}
	}
	return RoleDef{}, false
}

// CheckEvent validates that an event is well-formed with respect to the
// specification: known role, known primitive, and params that are one
// encoded record matching the declaration (no missing, no extra, kinds
// correct). It parses the params against the primitive's schema, which
// it compiles per call; an Observer checks with the schema it compiled
// once.
func (s *ServiceSpec) CheckEvent(e Event) error {
	var (
		prim *slottedPrim
		sl   codec.Slots
		perr error
	)
	if p, ok := s.Primitive(e.Primitive); ok {
		if err := p.validateParams(); err != nil {
			return err
		}
		sp := slotPrim(p, p.Schema())
		prim, perr = &sp, sp.schema.ParseRecord(e.Params, &sl)
	}
	return s.checkEvent(e, prim, &sl, perr)
}

// checkEvent is CheckEvent of an event whose primitive is prim (nil when
// the spec declares none of its name) and whose params parsed into sl
// against prim's schema, perr the parse error.
func (s *ServiceSpec) checkEvent(e Event, prim *slottedPrim, sl *codec.Slots, perr error) error {
	if _, ok := s.Role(e.SAP.Role); !ok && len(s.Roles) > 0 {
		return fmt.Errorf("%w: %q (event %s)", ErrUnknownRole, e.SAP.Role, e.Label())
	}
	if prim == nil {
		return fmt.Errorf("%w: %q (event %s)", ErrUnknownPrimitive, e.Primitive, e.Label())
	}
	if perr != nil {
		return fmt.Errorf("%w: %q params: %v", ErrBadParams, prim.def.Name, perr)
	}
	return checkParams(prim, sl)
}

// slottedPrim is a primitive with the schema of its parameter record and
// the slot of each declared parameter, in declaration order.
type slottedPrim struct {
	def    PrimitiveDef
	schema *codec.Schema
	slots  [codec.MaxSlots]codec.Slot
}

// slotPrim resolves the slot of every parameter of p, a primitive whose
// parameters validateParams accepts, in schema: p.Schema() or another
// compiled from the same names.
func slotPrim(p PrimitiveDef, schema *codec.Schema) slottedPrim {
	sp := slottedPrim{def: p, schema: schema}
	for i, param := range p.Params {
		sp.slots[i] = schema.Slot(param.Name)
	}
	return sp
}

// checkParams checks params parsed into sl against the schema of prim:
// exactly the declared parameters, each of its declared kind.
func checkParams(prim *slottedPrim, sl *codec.Slots) error {
	p := &prim.def
	if n := sl.View().Len(); n != len(p.Params) {
		return fmt.Errorf("%w: %q got %d params, declared %d", ErrBadParams, p.Name, n, len(p.Params))
	}
	for i, decl := range p.Params {
		slot := prim.slots[i]
		if !sl.Has(slot) {
			return fmt.Errorf("%w: %q missing parameter %q", ErrBadParams, p.Name, decl.Name)
		}
		if !kindAt(sl, slot, decl.Kind) {
			return fmt.Errorf("%w: %q parameter %q: %v", ErrBadParams, p.Name, decl.Name, kindMismatch(sl, slot, decl))
		}
	}
	return nil
}

// kindAt reports whether the value in slot i has kind k.
func kindAt(sl *codec.Slots, i codec.Slot, k ParamKind) (ok bool) {
	switch k {
	case KindString:
		_, ok = sl.StrAt(i)
	case KindInt:
		_, ok = sl.IntAt(i)
	case KindBool:
		_, ok = sl.BoolAt(i)
	case KindStringList:
		_, ok = sl.StringsAt(i, nil)
	}
	return ok
}

// kindMismatch renders why parameter decl, present in slot i and
// rejected by kindAt, is not of its declared kind.
func kindMismatch(sl *codec.Slots, i codec.Slot, decl ParamDef) error {
	got, _ := sl.ValueAt(i)
	switch decl.Kind {
	case KindString, KindInt, KindBool:
		return fmt.Errorf("want %s, got %T", decl.Kind, got)
	case KindStringList:
		_, err := codec.ToStringSlice(got)
		return fmt.Errorf("want list<string>: %v", err)
	}
	return fmt.Errorf("unknown kind %v", decl.Kind)
}

// Document renders the specification in the style of the paper's Figure 5:
// primitives with signatures, then the constraints.
func (s *ServiceSpec) Document() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "service %s\n", s.Name)
	if s.Description != "" {
		fmt.Fprintf(&sb, "  %s\n", s.Description)
	}
	if len(s.Roles) > 0 {
		sb.WriteString("roles:\n")
		for _, r := range s.Roles {
			max := "∞"
			if r.Max > 0 {
				max = fmt.Sprintf("%d", r.Max)
			}
			fmt.Fprintf(&sb, "  %s [%d..%s]\n", r.Name, r.Min, max)
		}
	}
	sb.WriteString("primitives (occur @ SAP):\n")
	for _, p := range s.Primitives {
		fmt.Fprintf(&sb, "  %-10s %s\n", p.Direction, p.Signature())
	}
	if len(s.Constraints) > 0 {
		sb.WriteString("constraints:\n")
		for _, c := range s.Constraints {
			fmt.Fprintf(&sb, "  [%s] %s: %s\n", c.Scope(), c.Name(), c.Description())
		}
	}
	return sb.String()
}
