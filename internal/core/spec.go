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
		seenParam := make(map[string]struct{}, len(p.Params))
		for _, param := range p.Params {
			if _, dup := seenParam[param.Name]; dup {
				return fmt.Errorf("core: primitive %q declares parameter %q twice", p.Name, param.Name)
			}
			seenParam[param.Name] = struct{}{}
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
// correct).
func (s *ServiceSpec) CheckEvent(e Event) error {
	if _, ok := s.Role(e.SAP.Role); !ok && len(s.Roles) > 0 {
		return fmt.Errorf("%w: %q (event %s)", ErrUnknownRole, e.SAP.Role, e.Label())
	}
	p, ok := s.Primitive(e.Primitive)
	if !ok {
		return fmt.Errorf("%w: %q (event %s)", ErrUnknownPrimitive, e.Primitive, e.Label())
	}
	if o := e.obs; o != nil && o.cur != nil {
		return o.checkParams(p)
	}
	v, err := codec.ParseRecord(e.Params)
	if err != nil {
		return fmt.Errorf("%w: %q params: %v", ErrBadParams, p.Name, err)
	}
	if v.Len() != len(p.Params) {
		return fmt.Errorf("%w: %q got %d params, declared %d", ErrBadParams, p.Name, v.Len(), len(p.Params))
	}
	for _, decl := range p.Params {
		if !v.Has(decl.Name) {
			return fmt.Errorf("%w: %q missing parameter %q", ErrBadParams, p.Name, decl.Name)
		}
		if err := checkKind(&v, decl); err != nil {
			return fmt.Errorf("%w: %q parameter %q: %v", ErrBadParams, p.Name, decl.Name, err)
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

// checkKind checks that present parameter decl has its declared kind.
func checkKind(v *codec.MsgView, decl ParamDef) error {
	var ok bool
	switch decl.Kind {
	case KindString:
		_, ok = v.Str(decl.Name)
	case KindInt:
		_, ok = v.Int(decl.Name)
	case KindBool:
		_, ok = v.Bool(decl.Name)
	case KindStringList:
		_, ok = v.Strings(decl.Name, nil)
	default:
		return fmt.Errorf("unknown kind %v", decl.Kind)
	}
	if ok {
		return nil
	}
	got, _ := v.Value(decl.Name)
	if decl.Kind == KindStringList {
		_, err := codec.ToStringSlice(got)
		return fmt.Errorf("want list<string>: %v", err)
	}
	return fmt.Errorf("want %s, got %T", decl.Kind, got)
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
