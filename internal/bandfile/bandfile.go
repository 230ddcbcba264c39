// Package bandfile implements the scenario-band file format: the
// declarative face of the sweep bands cmd/sweep runs. Where internal/sdl
// makes the service definition a data file, bandfile does the same for
// the experiment matrix. Band is the one description of a floor-control
// band: the runner's built-in bands are Band values, cmd/sweep's
// dimension flags override fields of one, and runner.Expand validates
// and expands every Band the same way, wherever it came from.
//
// A band file holds one or more band blocks:
//
//	band default {
//	  description "headline sweep: every solution under loss and fan-out"
//	  kind matrix
//	  solutions all
//	  clients 2, 8, 32
//	  loss 0, 0.01, 0.05, 0.1
//	  cycles 6
//	}
//
//	band churn {
//	  kind churn
//	  crash 0.5, 2, 5
//	  mttr 50 ms, 200 ms, 500 ms
//	  rebind auto
//	}
//
// Matrix bands sweep solutions × clients × resources × loss; churn bands
// sweep solutions × rebind policy × crash rate × MTTR. Comments run from
// '#' or '//' to end of line. Durations are "<number> <unit>" with unit
// us, ms, or s, as in the service definition language.
//
// Parse checks form only (grammar, duplicate statements, duplicate band
// names). Everything about values is runner.Expand's: known solution
// names, positive counts, loss in [0,1), no duplicates, and statements
// the band's kind does not take (crash, mttr, rebind, and deadline only
// apply to churn bands; churn bands fix clients, resources, loss, and
// cycles).
package bandfile

import (
	"fmt"
	"math"
	"strconv"
	"time"
	"unicode"
)

// Band kinds.
const (
	KindMatrix = "matrix"
	KindChurn  = "churn"
)

// RebindAuto is the rebind sentinel: no-rebind for every solution plus
// failover for the solutions that support it.
const RebindAuto = "auto"

// File is a parsed band file.
type File struct {
	Bands []Band
}

// Band is one floor-control band, parsed from a band block or built in
// Go. Nil dimension slices and zero values mean "defaulted":
// runner.Expand substitutes its defaults.
type Band struct {
	Name        string
	Description string
	// Kind is KindMatrix or KindChurn; an omitted kind statement means
	// matrix.
	Kind string
	// Solutions is nil for "all".
	Solutions []string
	Clients   []int
	Resources []int
	Loss      []float64
	Cycles    int
	// Churn-only dimensions.
	Crash  []float64
	MTTR   []time.Duration
	Rebind []string
	// Deadline is the churn acquire deadline; zero means the band
	// default.
	Deadline time.Duration
}

// SyntaxError reports a lexical or parse error with position.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("bandfile: %d:%d: %s", e.Line, e.Col, e.Msg)
}

// tokenKind classifies lexical tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokString
	tokNumber
	tokLBrace
	tokRBrace
	tokComma
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokString:
		return "string"
	case tokNumber:
		return "number"
	case tokLBrace:
		return "'{'"
	case tokRBrace:
		return "'}'"
	case tokComma:
		return "','"
	default:
		return fmt.Sprintf("token(%d)", int(k))
	}
}

type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

// lexer tokenizes band-file source.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func (l *lexer) errorf(format string, args ...any) *SyntaxError {
	return &SyntaxError{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) peekByte() (byte, bool) {
	if l.pos >= len(l.src) {
		return 0, false
	}
	return l.src[l.pos], true
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) skipSpaceAndComments() {
	for {
		c, ok := l.peekByte()
		if !ok {
			return
		}
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '#':
			l.skipLine()
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			l.skipLine()
		default:
			return
		}
	}
}

func (l *lexer) skipLine() {
	for {
		c, ok := l.peekByte()
		if !ok || c == '\n' {
			return
		}
		l.advance()
	}
}

// isIdentRune matches identifier constituents; dashes keep solution
// names ("mw-token") natural.
func isIdentRune(c byte, first bool) bool {
	r := rune(c)
	if unicode.IsLetter(r) || c == '_' {
		return true
	}
	if first {
		return false
	}
	return unicode.IsDigit(r) || c == '-'
}

func (l *lexer) next() (token, *SyntaxError) {
	l.skipSpaceAndComments()
	line, col := l.line, l.col
	c, ok := l.peekByte()
	if !ok {
		return token{kind: tokEOF, line: line, col: col}, nil
	}
	switch c {
	case '{':
		l.advance()
		return token{tokLBrace, "{", line, col}, nil
	case '}':
		l.advance()
		return token{tokRBrace, "}", line, col}, nil
	case ',':
		l.advance()
		return token{tokComma, ",", line, col}, nil
	case '"':
		return l.lexString(line, col)
	}
	if c >= '0' && c <= '9' {
		return l.lexNumber(line, col)
	}
	if isIdentRune(c, true) {
		return l.lexIdent(line, col)
	}
	return token{}, l.errorf("unexpected character %q", rune(c))
}

func (l *lexer) lexString(line, col int) (token, *SyntaxError) {
	l.advance() // opening quote
	start := l.pos
	for {
		c, ok := l.peekByte()
		if !ok || c == '\n' {
			return token{}, &SyntaxError{Line: line, Col: col, Msg: "unterminated string"}
		}
		l.advance()
		if c == '"' {
			return token{tokString, l.src[start : l.pos-1], line, col}, nil
		}
	}
}

// lexNumber scans an unsigned decimal with an optional fraction
// ("32", "0.01").
func (l *lexer) lexNumber(line, col int) (token, *SyntaxError) {
	start := l.pos
	for {
		c, ok := l.peekByte()
		if !ok || c < '0' || c > '9' {
			break
		}
		l.advance()
	}
	if c, ok := l.peekByte(); ok && c == '.' {
		l.advance()
		digits := 0
		for {
			c, ok := l.peekByte()
			if !ok || c < '0' || c > '9' {
				break
			}
			l.advance()
			digits++
		}
		if digits == 0 {
			return token{}, &SyntaxError{Line: line, Col: col, Msg: "number has no digits after '.'"}
		}
	}
	return token{tokNumber, l.src[start:l.pos], line, col}, nil
}

func (l *lexer) lexIdent(line, col int) (token, *SyntaxError) {
	start := l.pos
	first := true
	for {
		c, ok := l.peekByte()
		if !ok || !isIdentRune(c, first) {
			break
		}
		l.advance()
		first = false
	}
	return token{tokIdent, l.src[start:l.pos], line, col}, nil
}

// parser consumes the token stream.
type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errorf(t token, format string, args ...any) *SyntaxError {
	return &SyntaxError{Line: t.line, Col: t.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expect(kind tokenKind) (token, *SyntaxError) {
	t := p.next()
	if t.kind != kind {
		return token{}, p.errorf(t, "expected %s, found %s %q", kind, t.kind, t.text)
	}
	return t, nil
}

// Parse parses band-file source into its file form.
func Parse(src string) (*File, error) {
	toks, lerr := lexAll(src)
	if lerr != nil {
		return nil, lerr
	}
	p := &parser{toks: toks}
	f := &File{}
	seen := make(map[string]struct{})
	for p.peek().kind != tokEOF {
		b, err := p.parseBand()
		if err != nil {
			return nil, err
		}
		if _, dup := seen[b.Name]; dup {
			return nil, &SyntaxError{Line: 1, Col: 1, Msg: fmt.Sprintf("band %q declared twice", b.Name)}
		}
		seen[b.Name] = struct{}{}
		f.Bands = append(f.Bands, *b)
	}
	if len(f.Bands) == 0 {
		return nil, &SyntaxError{Line: 1, Col: 1, Msg: "file declares no bands"}
	}
	return f, nil
}

func lexAll(src string) ([]token, *SyntaxError) {
	l := &lexer{src: src, line: 1, col: 1}
	var out []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tokEOF {
			return out, nil
		}
	}
}

func (p *parser) parseBand() (*Band, *SyntaxError) {
	kw := p.next()
	if kw.kind != tokIdent || kw.text != "band" {
		return nil, p.errorf(kw, "expected 'band', found %s %q", kw.kind, kw.text)
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	b := &Band{Name: name.text, Kind: KindMatrix}
	seen := make(map[string]token)
	for {
		t := p.next()
		if t.kind == tokRBrace {
			break
		}
		if t.kind != tokIdent {
			return nil, p.errorf(t, "expected a statement or '}', found %s %q", t.kind, t.text)
		}
		if prev, dup := seen[t.text]; dup {
			return nil, p.errorf(t, "duplicate %q statement (first at %d:%d)", t.text, prev.line, prev.col)
		}
		seen[t.text] = t
		if serr := p.parseStatement(b, t); serr != nil {
			return nil, serr
		}
	}
	return b, nil
}

func (p *parser) parseStatement(b *Band, kw token) *SyntaxError {
	switch kw.text {
	case "description":
		t, err := p.expect(tokString)
		if err != nil {
			return err
		}
		b.Description = t.text
	case "kind":
		t, err := p.expect(tokIdent)
		if err != nil {
			return err
		}
		if t.text != KindMatrix && t.text != KindChurn {
			return p.errorf(t, "unknown band kind %q (matrix, churn)", t.text)
		}
		b.Kind = t.text
	case "solutions":
		names, err := p.parseIdentList()
		if err != nil {
			return err
		}
		if len(names) == 1 && names[0] == "all" {
			b.Solutions = nil
		} else {
			b.Solutions = names
		}
	case "clients":
		v, err := p.parseIntList()
		if err != nil {
			return err
		}
		b.Clients = v
	case "resources":
		v, err := p.parseIntList()
		if err != nil {
			return err
		}
		b.Resources = v
	case "loss":
		v, err := p.parseFloatList()
		if err != nil {
			return err
		}
		b.Loss = v
	case "cycles":
		t, err := p.expect(tokNumber)
		if err != nil {
			return err
		}
		n, aerr := p.atoi(t)
		if aerr != nil {
			return aerr
		}
		b.Cycles = n
	case "crash":
		v, err := p.parseFloatList()
		if err != nil {
			return err
		}
		b.Crash = v
	case "mttr":
		v, err := p.parseDurationList()
		if err != nil {
			return err
		}
		b.MTTR = v
	case "rebind":
		names, err := p.parseIdentList()
		if err != nil {
			return err
		}
		if len(names) == 1 && names[0] == RebindAuto {
			b.Rebind = nil
		} else {
			b.Rebind = names
		}
	case "deadline":
		d, err := p.parseDuration()
		if err != nil {
			return err
		}
		b.Deadline = d
	default:
		return p.errorf(kw, "unknown statement %q", kw.text)
	}
	return nil
}

func (p *parser) atoi(t token) (int, *SyntaxError) {
	n, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, p.errorf(t, "number %q out of range", t.text)
	}
	return n, nil
}

func (p *parser) parseIdentList() ([]string, *SyntaxError) {
	var out []string
	for {
		t, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		out = append(out, t.text)
		if p.peek().kind != tokComma {
			return out, nil
		}
		p.next()
	}
}

func (p *parser) parseIntList() ([]int, *SyntaxError) {
	var out []int
	for {
		t, err := p.expect(tokNumber)
		if err != nil {
			return nil, err
		}
		n, aerr := p.atoi(t)
		if aerr != nil {
			return nil, aerr
		}
		out = append(out, n)
		if p.peek().kind != tokComma {
			return out, nil
		}
		p.next()
	}
}

func (p *parser) parseFloatList() ([]float64, *SyntaxError) {
	var out []float64
	for {
		t, err := p.expect(tokNumber)
		if err != nil {
			return nil, err
		}
		v, perr := strconv.ParseFloat(t.text, 64)
		if perr != nil {
			return nil, p.errorf(t, "number %q out of range", t.text)
		}
		out = append(out, v)
		if p.peek().kind != tokComma {
			return out, nil
		}
		p.next()
	}
}

func (p *parser) parseDurationList() ([]time.Duration, *SyntaxError) {
	var out []time.Duration
	for {
		d, err := p.parseDuration()
		if err != nil {
			return nil, err
		}
		out = append(out, d)
		if p.peek().kind != tokComma {
			return out, nil
		}
		p.next()
	}
}

// parseDuration parses "<number> <unit>" with unit us, ms, or s.
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
		return 0, p.errorf(unitTok, "unknown duration unit %q (us, ms, s)", unitTok.text)
	}
	if int64(n) > math.MaxInt64/int64(unit) {
		return 0, p.errorf(numTok, "duration %s %s overflows", numTok.text, unitTok.text)
	}
	return time.Duration(n) * unit, nil
}
