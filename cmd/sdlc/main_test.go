package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
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
	want := codec.Record{"id": "42", "seq": int64(7), "urgent": true, "tags": codec.List{"a", "b"}}
	if !reflect.DeepEqual(params, want) {
		t.Fatalf("params = %#v, want %#v", params, want)
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
	want := codec.Record{"resid": "r1", "n": int64(3), "ok": false, "word": "hi"}
	if !reflect.DeepEqual(params, want) {
		t.Fatalf("params = %#v, want %#v", params, want)
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
	} {
		if _, _, _, err := parseTraceLine(spec, line); err == nil {
			t.Errorf("%q parsed", line)
		}
		if code, out := check(t, spec, line+"\n"); code != 1 || !strings.Contains(out, "trace.txt:1:") {
			t.Errorf("%q: exit %d, output:\n%s", line, code, out)
		}
	}
}
