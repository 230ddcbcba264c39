// Package sdl implements the service definition language — the
// "modelling language to support the approach" that the paper's
// conclusions name as current/future work: a language that facilitates
// "the specification of services and their designs" with "a formal basis
// to develop techniques for testing or proving the correctness of service
// designs".
//
// A service definition reads:
//
//	service floor-control {
//	  description "coordinated exclusive access to named resources"
//	  role subscriber [2..*]
//
//	  primitive request(resid: string) from-user
//	  primitive granted(resid: string) to-user
//	  primitive free(resid: string) from-user
//
//	  constraint local  granted-follows-request:
//	    precedes request -> granted key sap+param resid
//	  constraint local  free-follows-granted:
//	    precedes granted -> free key sap+param resid
//	  constraint remote exclusive-grant "a resource is only granted to one subscriber at a time":
//	    mutex acquire granted release free key param resid
//	  constraint local  request-eventually-granted:
//	    eventually request -> granted key sap+param resid
//	}
//
// A constraint may carry a quoted description after its name.
//
// Parse compiles such text into both a declarative Document (AST, used by
// Format for round-tripping) and an executable *core.ServiceSpec whose
// constraints are the monitors of internal/core.
package sdl

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexical tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokString
	tokNumber
	tokLBrace   // {
	tokRBrace   // }
	tokLParen   // (
	tokRParen   // )
	tokLBracket // [
	tokRBracket // ]
	tokColon    // :
	tokComma    // ,
	tokArrow    // ->
	tokDotDot   // ..
	tokStar     // *
	tokPlus     // +
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
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokLBracket:
		return "'['"
	case tokRBracket:
		return "']'"
	case tokColon:
		return "':'"
	case tokComma:
		return "','"
	case tokArrow:
		return "'->'"
	case tokDotDot:
		return "'..'"
	case tokStar:
		return "'*'"
	case tokPlus:
		return "'+'"
	default:
		return fmt.Sprintf("token(%d)", int(k))
	}
}

// token is one lexical unit with its source position.
type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

// SyntaxError reports a lexical or parse error with position.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("sdl: %d:%d: %s", e.Line, e.Col, e.Msg)
}

// lexer tokenizes SDL source. Comments run from '#' or '//' to end of
// line.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
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

// skipSpaceAndComments consumes whitespace and comments.
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

// isIdentRune reports identifier constituents. Dashes and underscores are
// allowed so primitive and constraint names read naturally
// ("granted-follows-request").
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

// next returns the next token.
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
	case '(':
		l.advance()
		return token{tokLParen, "(", line, col}, nil
	case ')':
		l.advance()
		return token{tokRParen, ")", line, col}, nil
	case '[':
		l.advance()
		return token{tokLBracket, "[", line, col}, nil
	case ']':
		l.advance()
		return token{tokRBracket, "]", line, col}, nil
	case ':':
		l.advance()
		return token{tokColon, ":", line, col}, nil
	case ',':
		l.advance()
		return token{tokComma, ",", line, col}, nil
	case '*':
		l.advance()
		return token{tokStar, "*", line, col}, nil
	case '+':
		l.advance()
		return token{tokPlus, "+", line, col}, nil
	case '-':
		// '-' begins '->' or an identifier continuation; a bare '-' at
		// token start must be the arrow.
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '>' {
			l.advance()
			l.advance()
			return token{tokArrow, "->", line, col}, nil
		}
		return token{}, l.errorf("unexpected '-'")
	case '.':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '.' {
			l.advance()
			l.advance()
			return token{tokDotDot, "..", line, col}, nil
		}
		return token{}, l.errorf("unexpected '.'")
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
	var sb strings.Builder
	for {
		c, ok := l.peekByte()
		if !ok || c == '\n' {
			return token{}, &SyntaxError{Line: line, Col: col, Msg: "unterminated string"}
		}
		l.advance()
		if c == '"' {
			return token{tokString, sb.String(), line, col}, nil
		}
		if c == '\\' {
			esc, ok := l.peekByte()
			if !ok {
				return token{}, &SyntaxError{Line: line, Col: col, Msg: "unterminated escape"}
			}
			l.advance()
			switch esc {
			case '"', '\\':
				sb.WriteByte(esc)
			case 'n':
				sb.WriteByte('\n')
			default:
				return token{}, &SyntaxError{Line: line, Col: col, Msg: fmt.Sprintf("unknown escape \\%c", esc)}
			}
			continue
		}
		sb.WriteByte(c)
	}
}

func (l *lexer) lexNumber(line, col int) (token, *SyntaxError) {
	var sb strings.Builder
	for {
		c, ok := l.peekByte()
		if !ok || c < '0' || c > '9' {
			break
		}
		sb.WriteByte(c)
		l.advance()
	}
	return token{tokNumber, sb.String(), line, col}, nil
}

func (l *lexer) lexIdent(line, col int) (token, *SyntaxError) {
	var sb strings.Builder
	first := true
	for {
		c, ok := l.peekByte()
		if !ok || !isIdentRune(c, first) {
			break
		}
		// A '-' followed by '>' ends the identifier: it is an arrow.
		if c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '>' {
			break
		}
		sb.WriteByte(c)
		l.advance()
		first = false
	}
	return token{tokIdent, sb.String(), line, col}, nil
}

// lexAll tokenizes the whole input (including the trailing EOF token).
func lexAll(src string) ([]token, *SyntaxError) {
	l := newLexer(src)
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
