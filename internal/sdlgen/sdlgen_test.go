package sdlgen

import (
	"bytes"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sdl"
)

// generateFromRepo parses a committed spec and generates its package.
func generateFromRepo(t *testing.T, name string) []byte {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "specs", name+".svc"))
	if err != nil {
		t.Fatalf("read spec: %v", err)
	}
	doc, _, perr := sdl.Parse(string(src))
	if perr != nil {
		t.Fatalf("parse %s.svc: %v", name, perr)
	}
	out, gerr := Generate(doc, Options{Source: name + ".svc"})
	if gerr != nil {
		t.Fatalf("generate %s.svc: %v", name, gerr)
	}
	return out
}

// TestGolden pins the committed generated packages byte-for-byte: if the
// generator (or a spec) changes, the committed output must be
// regenerated in the same commit. CI enforces the same property via
// `make generate && git diff --exit-code`.
func TestGolden(t *testing.T) {
	for _, pkg := range []string{"floorcontrol", "allkinds"} {
		t.Run(pkg, func(t *testing.T) {
			got := generateFromRepo(t, pkg)
			goldenPath := filepath.Join("..", "..", "examples", "gen", pkg, FileName(pkg))
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("read golden: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s is stale: committed output differs from generator output; run `make generate`", goldenPath)
			}
		})
	}
}

// TestEmitsTypedRPCContract pins the shape of the emitted wire functions
// for every primitive of both committed specs: a bare-record schema, an
// append encoder and a view decoder on the byte contract of the svc
// ports, and no Record-building encoder — the ports and handlers are
// wired to exactly those functions.
func TestEmitsTypedRPCContract(t *testing.T) {
	for _, pkg := range []string{"floorcontrol", "allkinds"} {
		t.Run(pkg, func(t *testing.T) {
			src := generateFromRepo(t, pkg)
			f, err := parser.ParseFile(token.NewFileSet(), pkg+"_gen.go", src, 0)
			if err != nil {
				t.Fatalf("parse generated output: %v", err)
			}
			sigs := make(map[string]string)
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok {
					sigs[fn.Name.Name] = types.ExprString(fn.Type)
				}
			}
			check := func(name, want string) {
				t.Helper()
				if got, ok := sigs[name]; !ok || got != want {
					t.Errorf("%s: signature %q, want %q", name, got, want)
				}
			}
			check("AppendAck", "func(buf []byte, _ Ack) ([]byte, error)")
			check("DecodeAck", "func(codec.MsgView) (Ack, error)")
			spec := generatedSpec(t, pkg)
			for _, prim := range spec.Primitives {
				g, err := goName(prim.Name)
				if err != nil {
					t.Fatal(err)
				}
				arg := "p"
				if len(prim.Params) == 0 {
					arg = "_"
				}
				check("Append"+g+"Params", "func(buf []byte, "+arg+" "+g+"Params) ([]byte, error)")
				if len(prim.Params) == 0 {
					check("Decode"+g+"Params", "func(codec.MsgView) ("+g+"Params, error)")
				} else {
					check("Decode"+g+"Params", "func(v codec.MsgView) ("+g+"Params, error)")
				}
				if _, ok := sigs["Encode"+g+"Params"]; ok {
					t.Errorf("Encode%sParams is still emitted", g)
				}
				if !regexp.MustCompile(`Schema` + g + `\s+= codec\.CompileRecord\(`).Match(src) {
					t.Errorf("Schema%s is not a compiled record schema", g)
				}
				handle := "svc.HandleOp(e, Prim" + g + ", Decode" + g + "Params, AppendAck, h)"
				if !bytes.Contains(src, []byte(handle)) {
					t.Errorf("generated source lacks %q", handle)
				}
				wire := "svc.NewPort(b, target, Prim" + g + ", Append" + g + "Params, DecodeAck)"
				if prim.Direction == core.ToUser {
					wire = "svc.NewOnewaySink(b, target, Prim" + g + ", Append" + g + "Params)"
				}
				if !bytes.Contains(src, []byte(wire)) {
					t.Errorf("generated source lacks %q", wire)
				}
			}
		})
	}
}

// generatedSpec parses a committed spec into its validated ServiceSpec.
func generatedSpec(t *testing.T, name string) *core.ServiceSpec {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "specs", name+".svc"))
	if err != nil {
		t.Fatalf("read spec: %v", err)
	}
	_, spec, perr := sdl.Parse(string(src))
	if perr != nil {
		t.Fatalf("parse %s.svc: %v", name, perr)
	}
	return spec
}

// TestDeterministic pins that generation is a pure function of the
// input: two runs over the same document emit identical bytes.
func TestDeterministic(t *testing.T) {
	a := generateFromRepo(t, "allkinds")
	b := generateFromRepo(t, "allkinds")
	if !bytes.Equal(a, b) {
		t.Fatal("two generation runs over the same spec differ")
	}
}

// TestGofmtFixpoint pins that emitted code is already gofmt-formatted,
// so the CI gofmt gate never fights the freshness gate.
func TestGofmtFixpoint(t *testing.T) {
	out := generateFromRepo(t, "floorcontrol")
	formatted, err := format.Source(out)
	if err != nil {
		t.Fatalf("format: %v", err)
	}
	if !bytes.Equal(out, formatted) {
		t.Fatal("generated output is not a gofmt fixpoint")
	}
}

// TestGeneratedMarker pins that the emitted header is the standard
// generated-code marker both the go tool and repolint recognise.
func TestGeneratedMarker(t *testing.T) {
	out := generateFromRepo(t, "floorcontrol")
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "floorcontrol_gen.go", out, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse generated output: %v", err)
	}
	if !ast.IsGenerated(f) {
		t.Fatal("generated file does not carry a recognised 'Code generated' marker")
	}
}

// TestBuildErrors pins the model checks: inputs whose declarations
// mangle to colliding or unusable Go identifiers are rejected, not
// silently emitted as broken files.
func TestBuildErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		pkg  string
		want string
	}{
		{
			name: "primitive collision",
			src: "service s {\n" +
				"  primitive sig-a() from-user\n" +
				"  primitive sig_a() to-user\n" +
				"}\n",
			want: "both map to Go identifier",
		},
		{
			name: "parameter collision",
			src: "service s {\n" +
				"  primitive p(x-y: string, x_y: string) from-user\n" +
				"}\n",
			want: "both map to field",
		},
		{
			name: "role collision",
			src: "service s {\n" +
				"  role a-b [1..1]\n" +
				"  role a_b [1..1]\n" +
				"  primitive p() from-user\n" +
				"}\n",
			want: "both map to Go identifier",
		},
		{
			name: "uppercase package",
			src:  "service s {\n  primitive p() from-user\n}\n",
			pkg:  "Foo",
			want: "not a usable package name",
		},
		{
			name: "keyword package",
			src:  "service s {\n  primitive p() from-user\n}\n",
			pkg:  "func",
			want: "not a usable package name",
		},
		{
			name: "dashed package",
			src:  "service s {\n  primitive p() from-user\n}\n",
			pkg:  "my-pkg",
			want: "not a usable package name",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doc, _, perr := sdl.Parse(tc.src)
			if perr != nil {
				t.Fatalf("parse: %v", perr)
			}
			_, err := Build(doc, tc.pkg, "test.svc")
			if err == nil {
				t.Fatalf("Build accepted input that should be rejected")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestBuildRejectsInvalidDocument pins that Build re-validates: a
// document that does not compile is rejected before any emission.
func TestBuildRejectsInvalidDocument(t *testing.T) {
	doc := &sdl.Document{Name: "s"} // no primitives
	if _, err := Build(doc, "", "test.svc"); err == nil {
		t.Fatal("Build accepted a document with no primitives")
	}
}

// TestBuildRejectsUnmappableNames covers names the SDL grammar cannot
// produce but a hand-built Document can: goName must reject rather than
// emit an invalid identifier.
func TestBuildRejectsUnmappableNames(t *testing.T) {
	doc := &sdl.Document{
		Name: "s",
		Primitives: []sdl.PrimitiveDecl{
			{Name: "9lives", Direction: core.FromUser},
		},
	}
	// Bypass Compile's grammar-level guarantees by checking goName paths
	// directly through Build on a still-valid spec shape.
	if _, err := Build(doc, "", "test.svc"); err == nil {
		t.Fatal("Build accepted a primitive name starting with a digit")
	}
}

// TestPackageName pins the default package-name derivation.
func TestPackageName(t *testing.T) {
	cases := map[string]string{
		"floor-control": "floorcontrol",
		"all-kinds":     "allkinds",
		"Svc2":          "svc2",
		"2nd-service":   "ndservice",
	}
	for in, want := range cases {
		if got := PackageName(in); got != want {
			t.Errorf("PackageName(%q) = %q, want %q", in, got, want)
		}
	}
	if got := FileName("floorcontrol"); got != "floorcontrol_gen.go" {
		t.Errorf("FileName = %q", got)
	}
}
