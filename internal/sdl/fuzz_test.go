package sdl

import (
	"reflect"
	"testing"

	"repro/examples/specs"
)

// FuzzSDLRoundTrip pins the two contracts of the language front-end:
// Parse never panics on arbitrary input, and for every input that
// parses, Format is a lossless canonical form — reparsing the formatted
// text yields an identical Document and Format is a fixpoint. sdlgen and
// the committed .svc files rely on both.
func FuzzSDLRoundTrip(f *testing.F) {
	f.Add(specs.FloorControl)
	f.Add("service s {\n  primitive p() from-user\n}\n")
	f.Add(`service every-form {
  description "escapes: \" \\ \n end"
  role user [0..4]
  role admin [1..*]

  primitive open(id: string, n: int, ok: bool, tags: list) from-user
  primitive done(id: string) to-user

  constraint local a:
    precedes open -> done key sap+param id allow-multiple non-consuming
  constraint local b:
    eventually open -> done key param id
  constraint remote c "one \"holder\" at a time":
    mutex acquire open release done key param id
  constraint remote d:
    capacity 3 acquire open release done key param id
  constraint local e:
    deadline open -> done within 250 ms key sap+param id
  constraint local f:
    absent open between open and done key param id
}
`)
	f.Add("service x {\n  # comment\n  primitive p(a: int) to-user // trailing\n  constraint local c:\n    deadline p -> p within 9223372036854775807 s key param a\n}\n")
	// Parses but fails Validate (more parameters than slots): rejected,
	// so skipped, like any input that does not compile.
	f.Add("service wide {\n  primitive p(a: int, b: int, c: int, d: int, e: int, f: int, g: int, h: int, i: int) from-user\n}\n")
	f.Fuzz(func(t *testing.T, src string) {
		doc, _, err := Parse(src)
		if err != nil {
			return // invalid input: rejection (not a panic) is the contract
		}
		text := Format(doc)
		doc2, _, err := Parse(text)
		if err != nil {
			t.Fatalf("Format output does not reparse: %v\ninput: %q\nformatted: %q", err, src, text)
		}
		if !reflect.DeepEqual(doc, doc2) {
			t.Fatalf("round trip changed the document\ninput: %q\nformatted: %q\nfirst: %#v\nsecond: %#v", src, text, doc, doc2)
		}
		if text2 := Format(doc2); text2 != text {
			t.Fatalf("Format is not a fixpoint\nfirst: %q\nsecond: %q", text, text2)
		}
	})
}
