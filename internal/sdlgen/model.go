// Package sdlgen compiles a parsed service definition (internal/sdl)
// into a generated Go package: the validated core.ServiceSpec as a
// literal, a schema-compiled codec.Schema per primitive, typed
// parameter structs with record/wire codecs, and direction-aware
// svc.Port/Sink/Source/Export constructors. It is the model-to-code
// step of the paper's MDA trajectory: the service definition is the
// platform-independent model, the emitted package its platform-specific
// realization over the typed service-port façade.
//
// The pipeline is spec → model → emit: Build lowers a *sdl.Document
// into a Model (Go identifiers derived and collision-checked), emit
// renders it with a deterministic single pass and gofmt-formats the
// result. cmd/sdlgen is the CLI face; the committed outputs under
// examples/gen are pinned byte-for-byte by golden tests and the CI
// freshness gate.
package sdlgen

import (
	"fmt"
	"go/token"
	"strings"
	"unicode"

	"repro/internal/core"
	"repro/internal/sdl"
)

// Model is the generator's intermediate form: the document plus the Go
// identifiers every declaration maps to, validated to be collision-free.
type Model struct {
	// Package is the Go package name of the generated file.
	Package string
	// Source labels the origin of the generated code in the file header
	// (a file base name — the header must not depend on where the
	// generator was invoked from).
	Source string
	// ServiceName and Description mirror the document.
	ServiceName string
	Description string

	Roles       []Role
	Primitives  []Primitive
	Constraints []sdl.ConstraintDecl

	// primGo maps primitive names to their Go identifier stems.
	primGo map[string]string
}

// Role pairs a role declaration with its Go identifier stem.
type Role struct {
	Decl sdl.RoleDecl
	Go   string
}

// Param pairs a parameter declaration with its Go field name.
type Param struct {
	Decl sdl.ParamDecl
	Go   string
}

// Primitive pairs a primitive declaration with its Go identifier stem
// and mangled parameters.
type Primitive struct {
	Decl     sdl.PrimitiveDecl
	Go       string
	Params   []Param
	FromUser bool
}

// FromUser and ToUser filter the primitives by direction.
func (m *Model) FromUser() []Primitive { return m.byDirection(true) }

// ToUser returns the to-user primitives.
func (m *Model) ToUser() []Primitive { return m.byDirection(false) }

func (m *Model) byDirection(fromUser bool) []Primitive {
	var out []Primitive
	for _, p := range m.Primitives {
		if p.FromUser == fromUser {
			out = append(out, p)
		}
	}
	return out
}

// primConst returns the Go expression naming a primitive (its generated
// Prim constant).
func (m *Model) primConst(name string) string {
	if g, ok := m.primGo[name]; ok {
		return "Prim" + g
	}
	// Unreachable after Compile's reference cross-check; keep the
	// emitted code buildable anyway.
	return fmt.Sprintf("%q", name)
}

// Build lowers a document into the generator model. The document must
// compile (Build re-validates); pkg defaults to PackageName(doc.Name).
func Build(doc *sdl.Document, pkg, source string) (*Model, error) {
	if _, err := doc.Compile(); err != nil {
		return nil, fmt.Errorf("sdlgen: %w", err)
	}
	if pkg == "" {
		pkg = PackageName(doc.Name)
	}
	if !token.IsIdentifier(pkg) || token.IsKeyword(pkg) || pkg != strings.ToLower(pkg) {
		return nil, fmt.Errorf("sdlgen: %q is not a usable package name", pkg)
	}
	m := &Model{
		Package:     pkg,
		Source:      source,
		ServiceName: doc.Name,
		Description: doc.Description,
		Constraints: doc.Constraints,
		primGo:      make(map[string]string, len(doc.Primitives)),
	}

	// One namespace for every package-scope identifier the file emits;
	// two declarations mangling to the same Go name is an input error,
	// not a silently broken file.
	used := make(map[string]string)
	reserve := func(ident, owner string) error {
		if prev, ok := used[ident]; ok {
			return fmt.Errorf("sdlgen: %s and %s both map to Go identifier %s", prev, owner, ident)
		}
		used[ident] = owner
		return nil
	}
	for _, fixed := range []string{
		"ServiceName", "Spec", "Service", "Bind",
		"Ack", "AppendAck", "DecodeAck",
		"Provider", "Consumer", "ExportProvider", "ExportConsumer",
	} {
		used[fixed] = "the package scaffolding"
	}

	for _, r := range doc.Roles {
		g, err := goName(r.Name)
		if err != nil {
			return nil, fmt.Errorf("sdlgen: role %q: %w", r.Name, err)
		}
		if err := reserve("Role"+g, fmt.Sprintf("role %q", r.Name)); err != nil {
			return nil, err
		}
		m.Roles = append(m.Roles, Role{Decl: r, Go: g})
	}

	for _, p := range doc.Primitives {
		g, err := goName(p.Name)
		if err != nil {
			return nil, fmt.Errorf("sdlgen: primitive %q: %w", p.Name, err)
		}
		owner := fmt.Sprintf("primitive %q", p.Name)
		stems := []string{
			"Prim" + g, "Schema" + g, g + "Params",
			"Decode" + g + "Params", "Append" + g + "Params", "Handle" + g,
		}
		if p.Direction == core.FromUser {
			stems = append(stems, "New"+g+"Port")
		} else {
			stems = append(stems,
				"New"+g+"Sink", "New"+g+"TopicSink", "New"+g+"TopicSource")
		}
		for _, s := range stems {
			if err := reserve(s, owner); err != nil {
				return nil, err
			}
		}
		prim := Primitive{Decl: p, Go: g, FromUser: p.Direction == core.FromUser}
		fields := make(map[string]string, len(p.Params))
		for _, param := range p.Params {
			fg, err := goName(param.Name)
			if err != nil {
				return nil, fmt.Errorf("sdlgen: primitive %q: parameter %q: %w", p.Name, param.Name, err)
			}
			if prev, dup := fields[fg]; dup {
				return nil, fmt.Errorf("sdlgen: primitive %q: parameters %q and %q both map to field %s",
					p.Name, prev, param.Name, fg)
			}
			fields[fg] = param.Name
			prim.Params = append(prim.Params, Param{Decl: param, Go: fg})
		}
		m.Primitives = append(m.Primitives, prim)
		m.primGo[p.Name] = g
	}
	return m, nil
}

// goName derives an exported Go identifier from an SDL name: split on
// '-' and '_', capitalize each part ("floor-control" → "FloorControl").
func goName(s string) (string, error) {
	var sb strings.Builder
	upper := true
	for _, r := range s {
		switch {
		case r == '-' || r == '_':
			upper = true
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			if sb.Len() == 0 && unicode.IsDigit(r) {
				return "", fmt.Errorf("cannot start a Go identifier with digit %q", r)
			}
			if upper {
				sb.WriteRune(unicode.ToUpper(r))
				upper = false
			} else {
				sb.WriteRune(r)
			}
		default:
			return "", fmt.Errorf("cannot map %q into a Go identifier", r)
		}
	}
	if sb.Len() == 0 {
		return "", fmt.Errorf("name %q is empty after mangling", s)
	}
	return sb.String(), nil
}

// PackageName derives the default Go package name from a service name:
// letters and digits only, lowercased ("floor-control" → "floorcontrol").
func PackageName(service string) string {
	var sb strings.Builder
	for _, r := range service {
		if unicode.IsLetter(r) || (sb.Len() > 0 && unicode.IsDigit(r)) {
			sb.WriteRune(unicode.ToLower(r))
		}
	}
	return sb.String()
}

// FileName is the generated file's name for a package: <pkg>_gen.go.
func FileName(pkg string) string { return pkg + "_gen.go" }

// goType maps a parameter kind to the generated struct field type.
func goType(k core.ParamKind) string {
	switch k {
	case core.KindInt:
		return "int64"
	case core.KindBool:
		return "bool"
	case core.KindStringList:
		return "[]string"
	default:
		return "string"
	}
}

// kindLabel names a kind in decode error messages.
func kindLabel(k core.ParamKind) string {
	switch k {
	case core.KindInt:
		return "int"
	case core.KindBool:
		return "bool"
	case core.KindStringList:
		return "list of strings"
	default:
		return "string"
	}
}
