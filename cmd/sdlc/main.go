// Command sdlc is the service-definition-language compiler: it parses a
// .svc file (see internal/sdl), validates it, prints the canonical form
// or the Figure-5-style service document, and can check a recorded trace
// against the specification — the tooling face of the paper's proposed
// modelling language.
//
// Usage:
//
//	sdlc -spec examples/specs/floorcontrol.svc
//	sdlc -spec examples/specs/floorcontrol.svc -doc
//	sdlc -spec examples/specs/floorcontrol.svc -check trace.txt
//	sdlc -example > my-service.svc
//
// Trace files contain one primitive execution per line:
//
//	<role>:<sap-id> <primitive> [<param>=<value> ...]   # comments allowed
//
// Each value parses as the kind its primitive declares for that
// parameter: int, bool, string (so resid=7 is the string "7" when resid
// is declared a string), or list, written comma-separated (a,b,c). A
// value that does not parse as its declared kind stays a string, which
// the kind check then reports. Undeclared parameters, which the check
// also reports, parse as int, bool, or string (in that order).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/examples/specs"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/sdl"
)

func main() {
	os.Exit(run())
}

func run() int {
	specPath := flag.String("spec", "", "service definition file (.svc)")
	doc := flag.Bool("doc", false, "print the Figure-5-style service document instead of canonical SDL")
	check := flag.String("check", "", "trace file to check against the specification")
	example := flag.Bool("example", false, "print the committed example definition (examples/specs/floorcontrol.svc) and exit")
	flag.Parse()

	if *example {
		fmt.Print(specs.FloorControl)
		return 0
	}
	if *specPath == "" {
		fmt.Fprintln(os.Stderr, "sdlc: -spec required (or -example)")
		return 2
	}
	src, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdlc: %v\n", err)
		return 1
	}
	document, spec, perr := sdl.Parse(string(src))
	if perr != nil {
		fmt.Fprintf(os.Stderr, "sdlc: %s: %v\n", *specPath, perr)
		return 1
	}
	switch {
	case *check != "":
		return checkTrace(spec, *check, os.Stdout, os.Stderr)
	case *doc:
		fmt.Print(spec.Document())
	default:
		fmt.Print(sdl.Format(document))
	}
	return 0
}

// wallClock satisfies core.Clock for offline trace checking, where event
// times come from the file order, not a simulation.
type lineClock struct{ line int }

func (c *lineClock) Now() time.Duration { return time.Duration(c.line) }

// checkTrace checks the trace file at path against spec, writing
// violations and the verdict to stdout and errors to stderr. It returns
// the exit code: 0 when the trace conforms, 1 otherwise.
func checkTrace(spec *core.ServiceSpec, path string, stdout, stderr io.Writer) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(stderr, "sdlc: %v\n", err)
		return 1
	}
	defer f.Close()

	clock := &lineClock{}
	obs, err := core.NewObserver(spec, clock, core.WithEventValidation())
	if err != nil {
		fmt.Fprintf(stderr, "sdlc: %v\n", err)
		return 1
	}
	scanner := bufio.NewScanner(f)
	lineNo := 0
	violations := 0
	for scanner.Scan() {
		lineNo++
		clock.line = lineNo
		line := strings.TrimSpace(scanner.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		sap, prim, params, perr := parseTraceLine(spec, line)
		if perr != nil {
			fmt.Fprintf(stderr, "sdlc: %s:%d: %v\n", path, lineNo, perr)
			return 1
		}
		if verr := obs.Observe(sap, prim, params); verr != nil {
			fmt.Fprintf(stdout, "%s:%d: VIOLATION: %v\n", path, lineNo, verr)
			violations++
		}
	}
	if err := scanner.Err(); err != nil {
		fmt.Fprintf(stderr, "sdlc: %v\n", err)
		return 1
	}
	if err := obs.Complete(); err != nil {
		// Report only end-of-trace findings not already printed.
		for _, v := range obs.Violations() {
			if viol, ok := core.AsViolation(v); ok && viol.Event == nil {
				fmt.Fprintf(stdout, "%s:end: VIOLATION: %v\n", path, v)
				violations++
			}
		}
	}
	if violations > 0 {
		fmt.Fprintf(stdout, "%d violation(s) in %d events\n", violations, obs.EventCount())
		return 1
	}
	fmt.Fprintf(stdout, "trace conforms: %d events, all constraints satisfied\n", obs.EventCount())
	return 0
}

// parseTraceLine parses "<role>:<id> <primitive> [k=v ...]", reading each
// value as the kind spec declares for that parameter of the primitive.
func parseTraceLine(spec *core.ServiceSpec, line string) (core.SAP, string, codec.Record, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return core.SAP{}, "", nil, fmt.Errorf("want '<role>:<id> <primitive> [k=v ...]', got %q", line)
	}
	role, id, ok := strings.Cut(fields[0], ":")
	if !ok || role == "" || id == "" {
		return core.SAP{}, "", nil, fmt.Errorf("bad SAP %q (want role:id)", fields[0])
	}
	prim, _ := spec.Primitive(fields[1])
	params := codec.Record{}
	for _, kv := range fields[2:] {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return core.SAP{}, "", nil, fmt.Errorf("bad parameter %q (want k=v)", kv)
		}
		params[k] = parseValue(declaredKind(prim, k), v)
	}
	return core.SAP{Role: role, ID: id}, fields[1], params, nil
}

// declaredKind returns the kind prim declares for parameter name, or the
// zero ParamKind, which no declaration has, when it declares none.
func declaredKind(prim core.PrimitiveDef, name string) core.ParamKind {
	for _, p := range prim.Params {
		if p.Name == name {
			return p.Kind
		}
	}
	return 0
}

// parseValue reads v as kind. A value that does not parse as its
// declared kind stays a string, for the kind check to report; an
// undeclared parameter's kind is guessed: int, then bool, then string.
func parseValue(kind core.ParamKind, v string) codec.Value {
	switch kind {
	case core.KindString:
		return v
	case core.KindStringList:
		if v == "" {
			return codec.List{}
		}
		return codec.StringList(strings.Split(v, ","))
	case core.KindInt:
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	case core.KindBool:
		if b, err := strconv.ParseBool(v); err == nil {
			return b
		}
	default:
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
		if b, err := strconv.ParseBool(v); err == nil {
			return b
		}
	}
	return v
}
