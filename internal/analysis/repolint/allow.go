package repolint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// Check names understood by //repolint:allow, mapped to the analyzer
// that reports them. allowcheck validates allow directives against this
// registry, so adding a check here is what makes it suppressible.
var Checks = map[string]string{
	"wallclock":  "simdeterminism",
	"globalrand": "simdeterminism",
	"env":        "simdeterminism",
	"mapiter":    "mapiter",
	"poolalias":  "poolalias",
	"bufleak":    "poolalias",
	"alloc":      "hotpathalloc",
	"allowdecl":  "allowcheck",
}

const (
	directivePrefix  = "//repolint:"
	allowDirective   = "allow"
	hotpathDirective = "hotpath"
)

// parseDirective splits a comment's text into a repolint directive name
// and its argument string. ok is false for non-repolint comments.
// Following the convention for tool directives (like //go:build), only
// comments with no space between // and the directive are recognized.
func parseDirective(text string) (name, args string, ok bool) {
	if !strings.HasPrefix(text, directivePrefix) {
		return "", "", false
	}
	rest := strings.TrimPrefix(text, directivePrefix)
	name, args, _ = strings.Cut(rest, " ")
	return strings.TrimSpace(name), strings.TrimSpace(args), true
}

// parseAllowArgs splits the argument string of an allow directive into
// check names, dropping the optional "-- reason" trailer.
func parseAllowArgs(args string) []string {
	if before, _, found := strings.Cut(args, "--"); found {
		args = strings.TrimSpace(before)
	}
	return strings.Fields(args)
}

// Allows indexes every //repolint:allow directive in a package by file
// and line, so analyzers can ask "is this check suppressed at this
// position" in O(1).
type Allows struct {
	fset *token.FileSet
	// byLine maps filename → line → check names allowed there. A
	// comment alone on its line also registers the following line.
	byLine map[string]map[int][]string
	// generated holds the filenames carrying a standard "Code generated
	// ... DO NOT EDIT." marker; diagnostics in them are suppressed
	// wholesale — the fix belongs in the generator, and a human cannot
	// annotate a file that is overwritten on every regeneration.
	generated map[string]bool
}

// CollectAllows builds the allow index for a pass. Analyzers call this
// once in their Run and route every diagnostic through Allows.Report.
func CollectAllows(pass *analysis.Pass) *Allows {
	a := &Allows{
		fset:      pass.Fset,
		byLine:    make(map[string]map[int][]string),
		generated: make(map[string]bool),
	}
	for _, f := range pass.Files {
		if ast.IsGenerated(f) {
			a.generated[a.fset.Position(f.Pos()).Filename] = true
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, args, ok := parseDirective(c.Text)
				if !ok || name != allowDirective {
					continue
				}
				checks := parseAllowArgs(args)
				if len(checks) == 0 {
					continue // allowcheck reports the malformed directive
				}
				pos := a.fset.Position(c.Pos())
				lines := a.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int][]string)
					a.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], checks...)
				// A directive standing alone on its line covers the
				// next line, the way lint suppressions conventionally
				// sit above the statement they annotate.
				if a.aloneOnLine(f, c) {
					lines[pos.Line+1] = append(lines[pos.Line+1], checks...)
				}
			}
		}
	}
	return a
}

// aloneOnLine reports whether comment c is the only thing on its line.
// A trailing directive (code before it on the line) covers only its own
// line; a standalone directive also covers the next. The test: no AST
// node ends in the span between the line start and the comment.
func (a *Allows) aloneOnLine(f *ast.File, c *ast.Comment) bool {
	tf := a.fset.File(c.Pos())
	if tf == nil {
		return a.fset.Position(c.Pos()).Column == 1
	}
	lineStart := tf.LineStart(a.fset.Position(c.Pos()).Line)
	alone := true
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || !alone {
			return false
		}
		if n.End() > lineStart && n.End() <= c.Pos() {
			alone = false
			return false
		}
		return true
	})
	return alone
}

// Allowed reports whether check is suppressed at pos, either by an
// allow directive on the line or because the file is generated.
func (a *Allows) Allowed(pos token.Pos, check string) bool {
	p := a.fset.Position(pos)
	if a.generated[p.Filename] {
		return true
	}
	lines := a.byLine[p.Filename]
	if lines == nil {
		return false
	}
	for _, c := range lines[p.Line] {
		if c == check {
			return true
		}
	}
	return false
}

// Report emits a diagnostic for check at pos unless an allow directive
// suppresses it. The message is prefixed with the check name so the
// matching //repolint:allow annotation is discoverable from the error.
func (a *Allows) Report(pass *analysis.Pass, pos token.Pos, check, format string, args ...any) {
	if a.Allowed(pos, check) {
		return
	}
	pass.Report(analysis.Diagnostic{
		Pos:      pos,
		Category: check,
		Message:  check + ": " + fmt.Sprintf(format, args...),
	})
}

// isTestFile reports whether the file containing pos is a _test.go
// file. The analyzers skip test files: tests may legitimately use wall
// clocks, ambient randomness, and unsorted iteration.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}
