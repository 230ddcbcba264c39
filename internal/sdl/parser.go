package sdl

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/core"
)

// Parse reads one service definition, returning the declarative document
// and the compiled executable specification.
func Parse(src string) (*Document, *core.ServiceSpec, error) {
	toks, lerr := lexAll(src)
	if lerr != nil {
		return nil, nil, lerr
	}
	p := &parser{toks: toks}
	doc, err := p.parseService()
	if err != nil {
		return nil, nil, err
	}
	spec, cerr := doc.Compile()
	if cerr != nil {
		return nil, nil, cerr
	}
	return doc, spec, nil
}

// MustParse parses a definition embedded in the program, panicking if it
// is invalid; the returned Document then compiles without error.
func MustParse(src string) *Document {
	doc, _, err := Parse(src)
	if err != nil {
		panic(fmt.Sprintf("sdl: embedded service definition: %v", err))
	}
	return doc
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token { return p.toks[p.pos] }

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errorf(t token, format string, args ...any) *SyntaxError {
	return &SyntaxError{Line: t.line, Col: t.col, Msg: fmt.Sprintf(format, args...)}
}

// expect consumes a token of the given kind or fails.
func (p *parser) expect(kind tokenKind) (token, *SyntaxError) {
	t := p.cur()
	if t.kind != kind {
		return token{}, p.errorf(t, "expected %s, found %s %q", kind, t.kind, t.text)
	}
	return p.advance(), nil
}

// expectKeyword consumes an identifier with exact text.
func (p *parser) expectKeyword(word string) *SyntaxError {
	t := p.cur()
	if t.kind != tokIdent || t.text != word {
		return p.errorf(t, "expected %q, found %q", word, t.text)
	}
	p.advance()
	return nil
}

func (p *parser) parseService() (*Document, *SyntaxError) {
	if err := p.expectKeyword("service"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	doc := &Document{Name: name.text}
	for {
		t := p.cur()
		switch {
		case t.kind == tokRBrace:
			p.advance()
			if trailing := p.cur(); trailing.kind != tokEOF {
				return nil, p.errorf(trailing, "unexpected %s after service body", trailing.kind)
			}
			return doc, nil
		case t.kind == tokEOF:
			return nil, p.errorf(t, "unterminated service body")
		case t.kind == tokIdent && t.text == "description":
			p.advance()
			s, err := p.expect(tokString)
			if err != nil {
				return nil, err
			}
			doc.Description = s.text
		case t.kind == tokIdent && t.text == "role":
			r, err := p.parseRole()
			if err != nil {
				return nil, err
			}
			doc.Roles = append(doc.Roles, r)
		case t.kind == tokIdent && t.text == "primitive":
			prim, err := p.parsePrimitive()
			if err != nil {
				return nil, err
			}
			doc.Primitives = append(doc.Primitives, prim)
		case t.kind == tokIdent && t.text == "constraint":
			c, err := p.parseConstraint()
			if err != nil {
				return nil, err
			}
			doc.Constraints = append(doc.Constraints, c)
		default:
			return nil, p.errorf(t, "expected declaration (description, role, primitive, constraint), found %q", t.text)
		}
	}
}

// parseRole parses `role <name> [min..max|*]` (the cardinality clause is
// optional; default [0..*]).
func (p *parser) parseRole() (RoleDecl, *SyntaxError) {
	p.advance() // 'role'
	name, err := p.expect(tokIdent)
	if err != nil {
		return RoleDecl{}, err
	}
	r := RoleDecl{Name: name.text, Max: -1}
	if p.cur().kind != tokLBracket {
		return r, nil
	}
	p.advance()
	min, err := p.expect(tokNumber)
	if err != nil {
		return RoleDecl{}, err
	}
	if r.Min, err = p.atoi(min); err != nil {
		return RoleDecl{}, err
	}
	if _, err := p.expect(tokDotDot); err != nil {
		return RoleDecl{}, err
	}
	switch t := p.cur(); t.kind {
	case tokStar:
		p.advance()
		r.Max = -1
	case tokNumber:
		p.advance()
		if r.Max, err = p.atoi(t); err != nil {
			return RoleDecl{}, err
		}
	default:
		return RoleDecl{}, p.errorf(t, "expected number or '*' in cardinality")
	}
	if _, err := p.expect(tokRBracket); err != nil {
		return RoleDecl{}, err
	}
	return r, nil
}

// parsePrimitive parses
// `primitive <name>(<param>: <kind>, ...) from-user|to-user`.
func (p *parser) parsePrimitive() (PrimitiveDecl, *SyntaxError) {
	p.advance() // 'primitive'
	name, err := p.expect(tokIdent)
	if err != nil {
		return PrimitiveDecl{}, err
	}
	decl := PrimitiveDecl{Name: name.text}
	if _, err := p.expect(tokLParen); err != nil {
		return PrimitiveDecl{}, err
	}
	for p.cur().kind != tokRParen {
		pname, err := p.expect(tokIdent)
		if err != nil {
			return PrimitiveDecl{}, err
		}
		if _, err := p.expect(tokColon); err != nil {
			return PrimitiveDecl{}, err
		}
		kindTok, err := p.expect(tokIdent)
		if err != nil {
			return PrimitiveDecl{}, err
		}
		kind, ok := paramKind(kindTok.text)
		if !ok {
			return PrimitiveDecl{}, p.errorf(kindTok, "unknown parameter kind %q (want string, int, bool, list)", kindTok.text)
		}
		decl.Params = append(decl.Params, ParamDecl{Name: pname.text, Kind: kind})
		if p.cur().kind == tokComma {
			p.advance()
			continue
		}
	}
	p.advance() // ')'
	dir, err := p.expect(tokIdent)
	if err != nil {
		return PrimitiveDecl{}, err
	}
	switch dir.text {
	case "from-user":
		decl.Direction = core.FromUser
	case "to-user":
		decl.Direction = core.ToUser
	default:
		return PrimitiveDecl{}, p.errorf(dir, "expected from-user or to-user, found %q", dir.text)
	}
	return decl, nil
}

func paramKind(name string) (core.ParamKind, bool) {
	switch name {
	case "string":
		return core.KindString, true
	case "int":
		return core.KindInt, true
	case "bool":
		return core.KindBool, true
	case "list":
		return core.KindStringList, true
	default:
		return 0, false
	}
}

// parseConstraint parses
//
//	constraint local|remote <name> ["<description>"] :
//	  precedes  A -> B key <key> [allow-multiple]
//	  eventually A -> B key <key>
//	  mutex acquire A release B key <key>
func (p *parser) parseConstraint() (ConstraintDecl, *SyntaxError) {
	p.advance() // 'constraint'
	scopeTok, err := p.expect(tokIdent)
	if err != nil {
		return ConstraintDecl{}, err
	}
	var scope core.Scope
	switch scopeTok.text {
	case "local":
		scope = core.ScopeLocal
	case "remote":
		scope = core.ScopeRemote
	default:
		return ConstraintDecl{}, p.errorf(scopeTok, "expected local or remote, found %q", scopeTok.text)
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return ConstraintDecl{}, err
	}
	decl := ConstraintDecl{Name: name.text, Scope: scope}
	if p.cur().kind == tokString {
		decl.Description = p.advance().text
	}
	if _, err := p.expect(tokColon); err != nil {
		return ConstraintDecl{}, err
	}
	formTok, err := p.expect(tokIdent)
	if err != nil {
		return ConstraintDecl{}, err
	}
	switch formTok.text {
	case "precedes", "eventually":
		if formTok.text == "precedes" {
			decl.Form = FormPrecedes
		} else {
			decl.Form = FormEventually
		}
		first, err := p.expect(tokIdent)
		if err != nil {
			return ConstraintDecl{}, err
		}
		if _, err := p.expect(tokArrow); err != nil {
			return ConstraintDecl{}, err
		}
		second, err := p.expect(tokIdent)
		if err != nil {
			return ConstraintDecl{}, err
		}
		decl.First, decl.Second = first.text, second.text
	case "mutex":
		decl.Form = FormMutex
		if err := p.expectKeyword("acquire"); err != nil {
			return ConstraintDecl{}, err
		}
		first, err := p.expect(tokIdent)
		if err != nil {
			return ConstraintDecl{}, err
		}
		if err := p.expectKeyword("release"); err != nil {
			return ConstraintDecl{}, err
		}
		second, err := p.expect(tokIdent)
		if err != nil {
			return ConstraintDecl{}, err
		}
		decl.First, decl.Second = first.text, second.text
	case "capacity":
		decl.Form = FormCapacity
		limitTok, err := p.expect(tokNumber)
		if err != nil {
			return ConstraintDecl{}, err
		}
		if decl.Limit, err = p.atoi(limitTok); err != nil {
			return ConstraintDecl{}, err
		}
		if decl.Limit < 1 {
			return ConstraintDecl{}, p.errorf(limitTok, "capacity limit must be at least 1")
		}
		if err := p.expectKeyword("acquire"); err != nil {
			return ConstraintDecl{}, err
		}
		first, err := p.expect(tokIdent)
		if err != nil {
			return ConstraintDecl{}, err
		}
		if err := p.expectKeyword("release"); err != nil {
			return ConstraintDecl{}, err
		}
		second, err := p.expect(tokIdent)
		if err != nil {
			return ConstraintDecl{}, err
		}
		decl.First, decl.Second = first.text, second.text
	case "deadline":
		decl.Form = FormDeadline
		first, err := p.expect(tokIdent)
		if err != nil {
			return ConstraintDecl{}, err
		}
		if _, err := p.expect(tokArrow); err != nil {
			return ConstraintDecl{}, err
		}
		second, err := p.expect(tokIdent)
		if err != nil {
			return ConstraintDecl{}, err
		}
		decl.First, decl.Second = first.text, second.text
		if err := p.expectKeyword("within"); err != nil {
			return ConstraintDecl{}, err
		}
		d, derr := p.parseDuration()
		if derr != nil {
			return ConstraintDecl{}, derr
		}
		decl.Within = d
	case "absent":
		decl.Form = FormAbsent
		forbidden, err := p.expect(tokIdent)
		if err != nil {
			return ConstraintDecl{}, err
		}
		decl.Forbidden = forbidden.text
		if err := p.expectKeyword("between"); err != nil {
			return ConstraintDecl{}, err
		}
		first, err := p.expect(tokIdent)
		if err != nil {
			return ConstraintDecl{}, err
		}
		if err := p.expectKeyword("and"); err != nil {
			return ConstraintDecl{}, err
		}
		second, err := p.expect(tokIdent)
		if err != nil {
			return ConstraintDecl{}, err
		}
		decl.First, decl.Second = first.text, second.text
	default:
		return ConstraintDecl{}, p.errorf(formTok, "expected precedes, eventually, mutex, capacity, deadline or absent, found %q", formTok.text)
	}
	key, kerr := p.parseKey()
	if kerr != nil {
		return ConstraintDecl{}, kerr
	}
	decl.Key = key
	for {
		t := p.cur()
		if t.kind != tokIdent || (t.text != "allow-multiple" && t.text != "non-consuming") {
			break
		}
		if decl.Form != FormPrecedes {
			return ConstraintDecl{}, p.errorf(t, "%s applies only to precedes", t.text)
		}
		p.advance()
		if t.text == "allow-multiple" {
			decl.AllowMultiple = true
		} else {
			decl.NonConsuming = true
		}
	}
	return decl, nil
}

// parseKey parses `key param <name>` or `key sap+param <name>`.
func (p *parser) parseKey() (KeyDecl, *SyntaxError) {
	if err := p.expectKeyword("key"); err != nil {
		return KeyDecl{}, err
	}
	t, err := p.expect(tokIdent)
	if err != nil {
		return KeyDecl{}, err
	}
	decl := KeyDecl{}
	switch t.text {
	case "param":
	case "sap":
		if _, err := p.expect(tokPlus); err != nil {
			return KeyDecl{}, err
		}
		if err := p.expectKeyword("param"); err != nil {
			return KeyDecl{}, err
		}
		decl.WithSAP = true
	default:
		return KeyDecl{}, p.errorf(t, "expected 'param' or 'sap+param', found %q", t.text)
	}
	param, err := p.expect(tokIdent)
	if err != nil {
		return KeyDecl{}, err
	}
	decl.Param = param.text
	return decl, nil
}

// atoi converts a number token, rejecting values that overflow int (a
// silently clamped literal would not survive the Format round trip).
func (p *parser) atoi(t token) (int, *SyntaxError) {
	n, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, p.errorf(t, "number %q out of range", t.text)
	}
	return n, nil
}

// parseDuration parses "<number> <unit>" with unit in us, ms, s.
func (p *parser) parseDuration() (time.Duration, *SyntaxError) {
	numTok, err := p.expect(tokNumber)
	if err != nil {
		return 0, err
	}
	n, aerr := p.atoi(numTok)
	if aerr != nil {
		return 0, aerr
	}
	unitTok, err := p.expect(tokIdent)
	if err != nil {
		return 0, err
	}
	var unit time.Duration
	switch unitTok.text {
	case "us":
		unit = time.Microsecond
	case "ms":
		unit = time.Millisecond
	case "s":
		unit = time.Second
	default:
		return 0, p.errorf(unitTok, "unknown duration unit %q (want us, ms, s)", unitTok.text)
	}
	if int64(n) > math.MaxInt64/int64(unit) {
		return 0, p.errorf(numTok, "duration %s %s overflows", numTok.text, unitTok.text)
	}
	return time.Duration(n) * unit, nil
}
