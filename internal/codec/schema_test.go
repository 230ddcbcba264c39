package codec

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestSchemaEncodeMatchesEncodeMessage(t *testing.T) {
	s := CompileSchema("rdp.data", "seq", "payload")
	e := s.Encoder(nil)
	e.Bytes("payload", []byte{1, 2, 3})
	e.Uint("seq", 42)
	got, err := e.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	want, err := EncodeMessage(NewMessage("rdp.data", Record{
		"seq":     uint64(42),
		"payload": []byte{1, 2, 3},
	}))
	if err != nil {
		t.Fatalf("EncodeMessage: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("schema bytes differ:\n got %x\nwant %x", got, want)
	}
}

func TestSchemaAllValueKinds(t *testing.T) {
	s := CompileSchema("m", "b", "f", "i", "n", "s", "t", "u", "v")
	e := s.Encoder(nil)
	e.Bool("b", true)
	e.Float("f", 3.5)
	e.Int("i", -7)
	e.Bytes("n", nil)
	e.Str("s", "x")
	e.Bool("t", false)
	e.Uint("u", math.MaxUint64)
	e.Value("v", List{"a", int64(1)})
	got, err := e.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	want := mustEncode("m")
	wantFields, _ := Append(nil, Record{
		"b": true, "f": 3.5, "i": int64(-7), "n": []byte{}, "s": "x",
		"t": false, "u": uint64(math.MaxUint64), "v": List{"a", int64(1)},
	})
	want = append(want, wantFields...)
	if !bytes.Equal(got, want) {
		t.Fatalf("schema bytes differ:\n got %x\nwant %x", got, want)
	}
	// And the legacy decoder accepts it.
	m, err := DecodeMessage(got)
	if err != nil {
		t.Fatalf("DecodeMessage: %v", err)
	}
	if m.Name != "m" || len(m.Fields) != 8 {
		t.Fatalf("decoded %v", m)
	}
}

func TestSchemaFieldOrderEnforced(t *testing.T) {
	s := CompileSchema("m", "a", "b")
	e := s.Encoder(nil)
	e.Uint("b", 1) // out of order: canonical order is a, b
	e.Uint("a", 2)
	if _, err := e.Finish(); err == nil {
		t.Fatal("expected order error")
	}
	e = s.Encoder(nil)
	e.Uint("a", 1)
	if _, err := e.Finish(); err == nil || !strings.Contains(err.Error(), "missing field") {
		t.Fatalf("err = %v, want missing field", err)
	}
	e = s.Encoder(nil)
	e.Uint("a", 1)
	e.Uint("nope", 2)
	if _, err := e.Finish(); err == nil {
		t.Fatal("expected unknown-field error")
	}
}

func TestSchemaRawSplice(t *testing.T) {
	inner := mustEncode(Record{"k": "v", "n": int64(3)})
	s := CompileSchema("fwd", "fields", "topic")
	e := s.Encoder(nil)
	e.Raw("fields", inner)
	e.Str("topic", "t1")
	got, err := e.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	want, _ := EncodeMessage(NewMessage("fwd", Record{
		"fields": Record{"k": "v", "n": int64(3)},
		"topic":  "t1",
	}))
	if !bytes.Equal(got, want) {
		t.Fatalf("raw splice bytes differ:\n got %x\nwant %x", got, want)
	}
	e = s.Encoder(nil)
	e.Raw("fields", nil)
	e.Str("topic", "t1")
	if _, err := e.Finish(); err == nil {
		t.Fatal("expected error for empty raw value")
	}
}

func TestSchemaEncoderReusesBuffer(t *testing.T) {
	s := CompileSchema("m", "x")
	buf := make([]byte, 0, 128)
	e := s.Encoder(buf)
	e.Uint("x", 1)
	out, err := e.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if &out[0] != &buf[:1][0] {
		t.Fatal("encoder did not append into the supplied buffer")
	}
}

func TestCompileSchemaPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"duplicate": func() { CompileSchema("m", "a", "a") },
		"empty":     func() { CompileSchema("m", "") },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		})
	}
}

func TestSchemaAccessors(t *testing.T) {
	s := CompileSchema("m", "b", "a")
	if s.Name() != "m" {
		t.Fatalf("Name = %q", s.Name())
	}
	if f := s.Fields(); len(f) != 2 || f[0] != "a" || f[1] != "b" {
		t.Fatalf("Fields = %v, want canonical order", f)
	}
}

// randomValue builds a random encodable value tree (bounded depth).
func randomValue(rng *rand.Rand, depth int) Value {
	kind := rng.Intn(9)
	if depth <= 0 && kind >= 7 {
		kind = rng.Intn(7)
	}
	switch kind {
	case 0:
		return nil
	case 1:
		return rng.Intn(2) == 0
	case 2:
		return rng.Int63() - rng.Int63()
	case 3:
		return uint64(rng.Int63())
	case 4:
		return rng.NormFloat64()
	case 5:
		return randString(rng)
	case 6:
		b := make([]byte, rng.Intn(8))
		rng.Read(b)
		return b
	case 7:
		n := rng.Intn(4)
		l := make(List, n)
		for i := range l {
			l[i] = randomValue(rng, depth-1)
		}
		return l
	default:
		n := rng.Intn(4)
		r := Record{}
		for i := 0; i < n; i++ {
			r[randString(rng)] = randomValue(rng, depth-1)
		}
		return r
	}
}

func randString(rng *rand.Rand) string {
	const alphabet = "abcdefgh_-0123"
	b := make([]byte, 1+rng.Intn(8))
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

// Property: for randomized records, schema-compiled encoding produces
// exactly the bytes of the legacy map-based Encode path.
func TestPropertySchemaMatchesLegacyEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		nf := 1 + rng.Intn(6)
		fields := Record{}
		for len(fields) < nf {
			fields[randString(rng)] = randomValue(rng, 2)
		}
		names := make([]string, 0, nf)
		for k := range fields {
			names = append(names, k)
		}
		name := "msg-" + randString(rng)
		s := CompileSchema(name, names...)
		e := s.Encoder(nil)
		for _, f := range s.Fields() {
			e.Value(f, fields[f])
		}
		got, err := e.Finish()
		if err != nil {
			t.Fatalf("iter %d: Finish: %v", iter, err)
		}
		want, err := EncodeMessage(NewMessage(name, fields))
		if err != nil {
			t.Fatalf("iter %d: EncodeMessage: %v", iter, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("iter %d: schema encoding diverges from legacy:\nfields %v\n got %x\nwant %x",
				iter, fields, got, want)
		}
	}
}
