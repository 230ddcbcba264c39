package codec

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

func mustParse(t *testing.T, data []byte) MsgView {
	t.Helper()
	v, err := ParseMessage(data)
	if err != nil {
		t.Fatalf("ParseMessage: %v", err)
	}
	return v
}

func TestViewTypedAccessors(t *testing.T) {
	data, err := EncodeMessage(NewMessage("probe", Record{
		"u":   uint64(99),
		"i":   int64(-4),
		"f":   2.5,
		"yes": true,
		"no":  false,
		"s":   "hello",
		"b":   []byte{7, 8},
		"nil": nil,
		"rec": Record{"inner": int64(1)},
	}))
	if err != nil {
		t.Fatalf("EncodeMessage: %v", err)
	}
	v := mustParse(t, data)
	if !v.NameIs("probe") || string(v.Name()) != "probe" {
		t.Fatalf("name = %q", v.Name())
	}
	if v.Len() != 9 {
		t.Fatalf("Len = %d", v.Len())
	}
	if u, ok := v.Uint("u"); !ok || u != 99 {
		t.Fatalf("Uint(u) = %d, %v", u, ok)
	}
	if i, ok := v.Int("i"); !ok || i != -4 {
		t.Fatalf("Int(i) = %d, %v", i, ok)
	}
	if f, ok := v.Float("f"); !ok || f != 2.5 {
		t.Fatalf("Float(f) = %v, %v", f, ok)
	}
	if b, ok := v.Bool("yes"); !ok || !b {
		t.Fatalf("Bool(yes) = %v, %v", b, ok)
	}
	if b, ok := v.Bool("no"); !ok || b {
		t.Fatalf("Bool(no) = %v, %v", b, ok)
	}
	if s, ok := v.Str("s"); !ok || string(s) != "hello" {
		t.Fatalf("Str(s) = %q, %v", s, ok)
	}
	if b, ok := v.Bytes("b"); !ok || !bytes.Equal(b, []byte{7, 8}) {
		t.Fatalf("Bytes(b) = %v, %v", b, ok)
	}
	if rec, ok := v.Record("rec"); !ok || !Equal(rec, Record{"inner": int64(1)}) {
		t.Fatalf("Record(rec) = %v, %v", rec, ok)
	}
	if val, ok := v.Value("nil"); !ok || val != nil {
		t.Fatalf("Value(nil) = %v, %v", val, ok)
	}
	if raw, ok := v.Raw("u"); !ok || !bytes.Equal(raw, mustEncode(uint64(99))) {
		t.Fatalf("Raw(u) = %x, %v", raw, ok)
	}
}

func TestViewMissesAndTypeMismatches(t *testing.T) {
	data, _ := EncodeMessage(NewMessage("m", Record{"s": "x", "u": uint64(1)}))
	v := mustParse(t, data)
	if _, ok := v.Uint("absent"); ok {
		t.Fatal("Uint(absent) hit")
	}
	if _, ok := v.Uint("s"); ok {
		t.Fatal("Uint on string field hit")
	}
	if _, ok := v.Int("u"); ok {
		t.Fatal("Int on uint field hit")
	}
	if _, ok := v.Str("u"); ok {
		t.Fatal("Str on uint field hit")
	}
	if _, ok := v.Bytes("s"); ok {
		t.Fatal("Bytes on string field hit")
	}
	if _, ok := v.Bool("s"); ok {
		t.Fatal("Bool on string field hit")
	}
	if _, ok := v.Float("s"); ok {
		t.Fatal("Float on string field hit")
	}
	if _, ok := v.Record("s"); ok {
		t.Fatal("Record on string field hit")
	}
	// "zz" sorts after every present key: exercises the early-exit scan.
	if _, ok := v.Raw("zz"); ok {
		t.Fatal("Raw(zz) hit")
	}
}

func TestViewMessageMaterialization(t *testing.T) {
	in := NewMessage("full", Record{
		"a": int64(1), "b": "two", "c": List{true, nil},
	})
	data, _ := EncodeMessage(in)
	v := mustParse(t, data)
	got, err := v.Message()
	if err != nil {
		t.Fatalf("Message: %v", err)
	}
	if got.Name != in.Name || !reflect.DeepEqual(got.Fields, in.Fields) {
		t.Fatalf("materialized %v, want %v", got, in)
	}
}

func TestParseMessageRejectsCorrupt(t *testing.T) {
	good, _ := EncodeMessage(NewMessage("m", Record{"k": "v"}))
	cases := map[string][]byte{
		"empty":           nil,
		"name not string": mustEncode(uint64(1)),
		"no fields":       mustEncode("m"),
		"fields not record": append(mustEncode("m"),
			mustEncode("not-a-record")...),
		"trailing":  append(append([]byte{}, good...), 0x00),
		"truncated": good[:len(good)-1],
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ParseMessage(data); err == nil {
				t.Fatalf("ParseMessage(% x) succeeded", data)
			}
		})
	}
}

// TestParseMessageAgreesWithDecodeMessage feeds random mutations to both
// parsers. ParseMessage accepts a subset of what DecodeMessage accepts:
// everything it accepts must also decode legacily to a codec-equal
// message, and the only inputs it may additionally reject are
// non-canonical ones (out-of-order or duplicate keys, which no encoder
// in this package produces) — so swapping call sites onto the view path
// cannot change how any encoder-produced wire message is handled.
func TestParseMessageAgreesWithDecodeMessage(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base, _ := EncodeMessage(NewMessage("mw.event", Record{
		"topic": "t", "name": "n", "fields": Record{"x": int64(1)},
	}))
	for iter := 0; iter < 2000; iter++ {
		data := append([]byte{}, base...)
		for k := 0; k < 1+rng.Intn(3); k++ {
			switch rng.Intn(3) {
			case 0:
				data[rng.Intn(len(data))] = byte(rng.Intn(256))
			case 1:
				data = data[:rng.Intn(len(data)+1)]
			case 2:
				data = append(data, byte(rng.Intn(256)))
			}
			if len(data) == 0 {
				break
			}
		}
		legacy, legacyErr := DecodeMessage(data)
		view, viewErr := ParseMessage(data)
		switch {
		case viewErr == nil && legacyErr != nil:
			t.Fatalf("iter %d: view accepted % x, legacy rejected: %v", iter, data, legacyErr)
		case viewErr == nil:
			vm, err := view.Message()
			if err != nil {
				t.Fatalf("iter %d: view materialization failed: %v", iter, err)
			}
			if vm.Name != legacy.Name || !Equal(Value(vm.Fields), Value(legacy.Fields)) {
				t.Fatalf("iter %d: view decoded %v, legacy %v", iter, vm, legacy)
			}
		case legacyErr == nil:
			// The only permitted extra rejection is non-canonicality.
			if !errors.Is(viewErr, ErrNonCanonical) {
				t.Fatalf("iter %d: view rejected legacy-accepted % x with %v (want ErrNonCanonical)",
					iter, data, viewErr)
			}
		}
	}
}

func TestParseMessageRejectsNonCanonical(t *testing.T) {
	// Hand-build messages with out-of-order and duplicate keys: the
	// legacy decoder tolerates both (map overwrite), the view rejects
	// them so its sorted-scan lookup is exact.
	pair := func(key string, val []byte) []byte {
		out := append([]byte{tagString, byte(len(key))}, key...)
		return append(out, val...)
	}
	msg := func(pairs ...[]byte) []byte {
		out := append(mustEncode("m"), tagRecord, byte(len(pairs)))
		for _, p := range pairs {
			out = append(out, p...)
		}
		return out
	}
	unsorted := msg(pair("b", mustEncode(int64(1))), pair("a", mustEncode(int64(2))))
	duplicate := msg(pair("a", []byte{tagNil}), pair("a", mustEncode(int64(5))))
	for name, data := range map[string][]byte{"unsorted": unsorted, "duplicate": duplicate} {
		t.Run(name, func(t *testing.T) {
			if _, err := DecodeMessage(data); err != nil {
				t.Fatalf("legacy decoder must tolerate %s keys: %v", name, err)
			}
			if _, err := ParseMessage(data); !errors.Is(err, ErrNonCanonical) {
				t.Fatalf("ParseMessage err = %v, want ErrNonCanonical", err)
			}
		})
	}
}

func TestSkipValueErrors(t *testing.T) {
	deep := []byte{}
	for i := 0; i < maxDepth+2; i++ {
		deep = append(deep, tagList, 1)
	}
	deep = append(deep, tagNil)
	if _, err := skipValue(deep, 0); !errors.Is(err, ErrDepth) {
		t.Fatalf("err = %v, want ErrDepth", err)
	}
	if _, err := skipValue(nil, 0); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if _, err := skipValue([]byte{0xEE}, 0); !errors.Is(err, ErrBadTag) {
		t.Fatalf("err = %v, want ErrBadTag", err)
	}
}
