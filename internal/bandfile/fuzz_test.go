package bandfile

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzBandfileParse pins the parser's contract on arbitrary input: Parse
// never panics, and every error it returns is a *SyntaxError positioned
// at line ≥ 1, column ≥ 1. Run bounded in CI (see
// .github/workflows/ci.yml, fuzz job) and by `make fuzz`.
func FuzzBandfileParse(f *testing.F) {
	committed, err := filepath.Glob(filepath.Join("..", "..", "examples", "bands", "*.band"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range committed {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, src := range []string{
		"",
		"band b {}",
		"band b {\n  kind churn\n  mttr 50 ms, 1 s, 250 us\n  deadline 8 s\n}\n",
		"band b { loss 0.5, .",
		"band b { description \"unterminated",
		"band a {}\nband a {}\n",
		"band b { clients 99999999999999999999 }",
		"# only a comment\n// and another",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, err := Parse(src)
		if err == nil {
			return
		}
		se, ok := err.(*SyntaxError)
		if !ok {
			t.Fatalf("Parse error %v is a %T, not a *SyntaxError", err, err)
		}
		if se.Line < 1 || se.Col < 1 {
			t.Fatalf("Parse error %v positioned at %d:%d", err, se.Line, se.Col)
		}
	})
}
