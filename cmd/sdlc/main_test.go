package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/examples/specs"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/sdl"
)

// mustSpec parses one committed service definition.
func mustSpec(t *testing.T, src string) *core.ServiceSpec {
	t.Helper()
	_, spec, err := sdl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// rec encodes a params record through the generic codec: the oracle a
// parsed trace line's params must equal byte for byte.
func rec(t *testing.T, r codec.Record) []byte {
	t.Helper()
	b, err := codec.Append(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// check writes trace to a file, checks it against spec and returns the
// exit code and stdout.
func check(t *testing.T, spec *core.ServiceSpec, trace string) (int, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.txt")
	if err := os.WriteFile(path, []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := checkTrace(spec, path, &stdout, &stderr)
	return code, stdout.String() + stderr.String()
}

func TestCheckNumericStringParameter(t *testing.T) {
	// resid is declared a string: "7" must stay the string "7", not be
	// guessed into an int that the kind check then rejects.
	spec := mustSpec(t, specs.FloorControl)
	code, out := check(t, spec, "subscriber:s1 request resid=7\nsubscriber:s1 granted resid=7\nsubscriber:s1 free resid=7\n")
	if code != 0 || !strings.Contains(out, "trace conforms: 3 events") {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
}

func TestParseValuesByDeclaredKind(t *testing.T) {
	spec := mustSpec(t, specs.AllKinds)
	sap, prim, params, err := parseTraceLine(spec, "producer:p1 open id=42 seq=7 urgent=true tags=a,b")
	if err != nil {
		t.Fatal(err)
	}
	if sap != (core.SAP{Role: "producer", ID: "p1"}) || prim != "open" {
		t.Fatalf("sap %v, primitive %q", sap, prim)
	}
	want := rec(t, codec.Record{"id": "42", "seq": int64(7), "urgent": true, "tags": codec.List{"a", "b"}})
	if !bytes.Equal(params, want) {
		t.Fatalf("params = % x, want % x", params, want)
	}
	if err := spec.CheckEvent(core.Event{SAP: sap, Primitive: prim, Params: params}); err != nil {
		t.Fatalf("declared kinds rejected: %v", err)
	}
}

func TestParseValueNotOfDeclaredKind(t *testing.T) {
	// A declared int or bool that does not parse stays a string, and the
	// kind check reports it.
	spec := mustSpec(t, specs.AllKinds)
	code, out := check(t, spec, "producer:p1 open id=x seq=seven urgent=maybe tags=\n")
	if code != 1 || !strings.Contains(out, `parameter "seq": want int, got string`) {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
}

func TestParseUndeclaredParameterGuessesKind(t *testing.T) {
	spec := mustSpec(t, specs.FloorControl)
	_, _, params, err := parseTraceLine(spec, "subscriber:s1 request resid=r1 n=3 ok=false word=hi")
	if err != nil {
		t.Fatal(err)
	}
	want := rec(t, codec.Record{"resid": "r1", "n": int64(3), "ok": false, "word": "hi"})
	if !bytes.Equal(params, want) {
		t.Fatalf("params = % x, want % x", params, want)
	}
	// Validation still flags the undeclared parameters.
	code, out := check(t, spec, "subscriber:s1 request resid=r1 n=3\n")
	if code != 1 || !strings.Contains(out, "VIOLATION") {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
}

func TestMalformedTraceLine(t *testing.T) {
	spec := mustSpec(t, specs.FloorControl)
	for _, line := range []string{
		"subscriber:s1",               // no primitive
		"subscriber request resid=r1", // SAP without an id
		"subscriber:s1 request resid", // parameter without a value
		"subscriber:s1 request =r1",   // parameter without a name
	} {
		if _, _, _, err := parseTraceLine(spec, line); err == nil {
			t.Errorf("%q parsed", line)
		}
		if code, out := check(t, spec, line+"\n"); code != 1 || !strings.Contains(out, "trace.txt:1:") {
			t.Errorf("%q: exit %d, output:\n%s", line, code, out)
		}
	}
}

// TestRepeatedParameterRejected: a parameter given twice is a parse
// error naming the line, not a silent last-value-wins.
func TestRepeatedParameterRejected(t *testing.T) {
	spec := mustSpec(t, specs.FloorControl)
	trace := "subscriber:s1 request resid=r1 resid=r2\nsubscriber:s1 granted resid=r2\nsubscriber:s1 free resid=r2\n"
	code, out := check(t, spec, trace)
	if code != 1 || !strings.Contains(out, `trace.txt:1: parameter "resid" given twice`) {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
}

// TestCheckRejectsUnslottableSpec: a primitive of more parameters than
// the observer reads by slot fails validation, and -check reports it
// naming the primitive instead of checking the trace.
func TestCheckRejectsUnslottableSpec(t *testing.T) {
	dir := t.TempDir()
	svc := filepath.Join(dir, "wide.svc")
	src := "service wide {\n  primitive p(a: int, b: int, c: int, d: int, e: int, f: int, g: int, h: int, i: int) from-user\n}\n"
	trace := filepath.Join(dir, "trace.txt")
	for path, body := range map[string]string{svc: src, trace: ""} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-spec", svc, "-check", trace}, &stdout, &stderr)
	if want := `primitive "p" declares 9 parameters, more than 8`; code != 1 || !strings.Contains(stderr.String(), want) {
		t.Fatalf("exit %d, stderr %q, want exit 1 reporting %q", code, stderr.String(), want)
	}
	if stdout.Len() != 0 {
		t.Fatalf("stdout %q, want nothing checked", stdout.String())
	}
}
