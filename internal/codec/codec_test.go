package codec

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, v Value) Value {
	t.Helper()
	data, err := Append(nil, v)
	if err != nil {
		t.Fatalf("Append(nil, %v): %v", v, err)
	}
	out, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode(Append(nil, %v)): %v", v, err)
	}
	return out
}

func TestRoundTripScalars(t *testing.T) {
	tests := []struct {
		name string
		in   Value
		want Value
	}{
		{"nil", nil, nil},
		{"true", true, true},
		{"false", false, false},
		{"int zero", int64(0), int64(0)},
		{"int positive", int64(12345), int64(12345)},
		{"int negative", int64(-99999), int64(-99999)},
		{"int min", int64(math.MinInt64), int64(math.MinInt64)},
		{"int max", int64(math.MaxInt64), int64(math.MaxInt64)},
		{"plain int widens", int(7), int64(7)},
		{"int32 widens", int32(-5), int64(-5)},
		{"uint zero", uint64(0), uint64(0)},
		{"uint max", uint64(math.MaxUint64), uint64(math.MaxUint64)},
		{"uint32 widens", uint32(9), uint64(9)},
		{"float", 3.25, 3.25},
		{"float neg zero", math.Copysign(0, -1), math.Copysign(0, -1)},
		{"string empty", "", ""},
		{"string", "floor-control", "floor-control"},
		{"string unicode", "prótocol — 服务", "prótocol — 服务"},
		{"bytes", []byte{0, 1, 2, 255}, []byte{0, 1, 2, 255}},
		{"bytes empty", []byte{}, []byte{}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := roundTrip(t, tt.in)
			if !reflect.DeepEqual(got, tt.want) {
				t.Fatalf("round trip = %#v, want %#v", got, tt.want)
			}
		})
	}
}

func TestRoundTripNaN(t *testing.T) {
	got := roundTrip(t, math.NaN())
	f, ok := got.(float64)
	if !ok || !math.IsNaN(f) {
		t.Fatalf("NaN round trip = %#v", got)
	}
}

func TestRoundTripComposites(t *testing.T) {
	in := Record{
		"resid": "res-1",
		"subid": int64(4),
		"nested": List{
			"a", int64(1), true, nil,
			Record{"deep": List{[]byte{9}}},
		},
		"empty-list": List{},
		"empty-rec":  Record{},
	}
	got := roundTrip(t, in)
	if !reflect.DeepEqual(got, Value(in)) {
		t.Fatalf("round trip = %#v, want %#v", got, in)
	}
}

func TestCanonicalRecordEncoding(t *testing.T) {
	a := Record{"x": int64(1), "y": int64(2), "z": "s"}
	b := Record{"z": "s", "y": int64(2), "x": int64(1)}
	ea, eb := mustEncode(a), mustEncode(b)
	if !reflect.DeepEqual(ea, eb) {
		t.Fatal("record encoding not canonical under key order")
	}
}

func TestUnsupportedType(t *testing.T) {
	_, err := Append(nil, struct{ X int }{1})
	if !errors.Is(err, ErrUnsupported) {
		t.Fatalf("err = %v, want ErrUnsupported", err)
	}
	_, err = Append(nil, Record{"k": make(chan int)})
	if !errors.Is(err, ErrUnsupported) {
		t.Fatalf("nested err = %v, want ErrUnsupported", err)
	}
}

func TestDepthLimit(t *testing.T) {
	var v Value = "leaf"
	for i := 0; i < maxDepth+2; i++ {
		v = List{v}
	}
	if _, err := Append(nil, v); !errors.Is(err, ErrDepth) {
		t.Fatalf("encode err = %v, want ErrDepth", err)
	}
	// Hand-roll a deep encoding to hit the decode-side limit: each level is
	// tagList + count 1.
	var data []byte
	for i := 0; i < maxDepth+2; i++ {
		data = append(data, tagList, 1)
	}
	data = append(data, tagNil)
	if _, err := Decode(data); !errors.Is(err, ErrDepth) {
		t.Fatalf("decode err = %v, want ErrDepth", err)
	}
}

func TestDecodeErrors(t *testing.T) {
	tests := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"bad tag", []byte{0xEE}, ErrBadTag},
		{"truncated string", []byte{tagString, 10, 'a'}, ErrSize},
		{"truncated float", []byte{tagFloat, 1, 2}, ErrTruncated},
		{"truncated varint", []byte{tagInt}, ErrTruncated},
		{"list size lies", []byte{tagList, 100}, ErrSize},
		{"record size lies", []byte{tagRecord, 100}, ErrSize},
		{"record non-string key", []byte{tagRecord, 1, tagInt, 2, tagNil}, ErrBadTag},
		{"trailing", append(mustEncode(int64(1)), 0x00), ErrTrailing},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Decode(tt.data); !errors.Is(err, tt.want) {
				t.Fatalf("Decode(% x) err = %v, want %v", tt.data, err, tt.want)
			}
		})
	}
}

func TestDecodePrefix(t *testing.T) {
	buf := mustEncode(int64(7))
	buf = append(buf, mustEncode("next")...)
	v, n, err := DecodePrefix(buf)
	if err != nil {
		t.Fatalf("DecodePrefix: %v", err)
	}
	if v != int64(7) {
		t.Fatalf("v = %v, want 7", v)
	}
	v2, _, err := DecodePrefix(buf[n:])
	if err != nil || v2 != "next" {
		t.Fatalf("second value = %v, %v", v2, err)
	}
}

// TestDecodePrefixPositions pins the byte positions DecodePrefix
// reports: exact consumed counts on success, zero consumed on failure,
// and the position embedded in Decode's ErrTrailing message.
func TestDecodePrefixPositions(t *testing.T) {
	values := []struct {
		name string
		v    Value
	}{
		{"nil", nil},
		{"bool", true},
		{"int", int64(-300)},
		{"uint", uint64(1 << 40)},
		{"float", 1.5},
		{"string", "abcdef"},
		{"bytes", []byte{1, 2, 3}},
		{"list", List{int64(1), "x"}},
		{"record", Record{"k": List{nil}}},
	}
	for _, tt := range values {
		t.Run(tt.name, func(t *testing.T) {
			enc := mustEncode(tt.v)
			// Appending a second value must not disturb the first value's
			// reported length.
			data := append(append([]byte{}, enc...), mustEncode("tail")...)
			_, n, err := DecodePrefix(data)
			if err != nil {
				t.Fatalf("DecodePrefix: %v", err)
			}
			if n != len(enc) {
				t.Fatalf("consumed %d bytes, want %d", n, len(enc))
			}
			// Every strict prefix of a single value is truncated or
			// otherwise invalid, and reports zero consumed bytes.
			for cut := 0; cut < len(enc); cut++ {
				v, n, err := DecodePrefix(enc[:cut])
				if err == nil {
					t.Fatalf("DecodePrefix(%x) = %v, want error", enc[:cut], v)
				}
				if n != 0 {
					t.Fatalf("failed DecodePrefix consumed %d bytes, want 0", n)
				}
			}
		})
	}
}

func TestDecodeTrailingReportsPosition(t *testing.T) {
	enc := mustEncode(int64(7))
	data := append(append([]byte{}, enc...), 0xAA, 0xBB)
	_, err := Decode(data)
	if !errors.Is(err, ErrTrailing) {
		t.Fatalf("err = %v, want ErrTrailing", err)
	}
	want := fmt.Sprintf("%d of %d bytes consumed", len(enc), len(data))
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %q, want position %q", err, want)
	}
}

func TestDepthLimitBoundary(t *testing.T) {
	// Exactly maxDepth nested lists decode; one more trips ErrDepth. The
	// error context names the failing element chain.
	build := func(depth int) []byte {
		var data []byte
		for i := 0; i < depth; i++ {
			data = append(data, tagList, 1)
		}
		return append(data, tagNil)
	}
	if _, err := Decode(build(maxDepth)); err != nil {
		t.Fatalf("depth %d should decode: %v", maxDepth, err)
	}
	_, err := Decode(build(maxDepth + 1))
	if !errors.Is(err, ErrDepth) {
		t.Fatalf("depth %d err = %v, want ErrDepth", maxDepth+1, err)
	}
	if !strings.Contains(err.Error(), "list element 0") {
		t.Fatalf("err = %q, want nesting context", err)
	}
	// The same boundary holds for the non-materializing walker.
	if _, err := skipValue(build(maxDepth), 0); err != nil {
		t.Fatalf("skipValue at depth %d: %v", maxDepth, err)
	}
	if _, err := skipValue(build(maxDepth+1), 0); !errors.Is(err, ErrDepth) {
		t.Fatalf("skipValue err = %v, want ErrDepth", err)
	}
}

func TestEqual(t *testing.T) {
	if !Equal(Record{"a": int64(1)}, Record{"a": int64(1)}) {
		t.Fatal("equal records reported unequal")
	}
	if Equal(Record{"a": int64(1)}, Record{"a": int64(2)}) {
		t.Fatal("unequal records reported equal")
	}
	if Equal(make(chan int), make(chan int)) {
		t.Fatal("unencodable values must compare unequal")
	}
}

func TestMessageRoundTrip(t *testing.T) {
	m := NewMessage("request", Record{"subid": "s1", "resid": "r1"})
	data, err := EncodeMessage(m)
	if err != nil {
		t.Fatalf("EncodeMessage: %v", err)
	}
	got, err := DecodeMessage(data)
	if err != nil {
		t.Fatalf("DecodeMessage: %v", err)
	}
	if got.Name != "request" || !reflect.DeepEqual(got.Fields, m.Fields) {
		t.Fatalf("round trip = %v, want %v", got, m)
	}
}

func TestMessageNilFields(t *testing.T) {
	data, err := EncodeMessage(Message{Name: "free"})
	if err != nil {
		t.Fatalf("EncodeMessage: %v", err)
	}
	got, err := DecodeMessage(data)
	if err != nil {
		t.Fatalf("DecodeMessage: %v", err)
	}
	if got.Fields == nil || len(got.Fields) != 0 {
		t.Fatalf("fields = %#v, want empty map", got.Fields)
	}
}

func TestMessageDecodeErrors(t *testing.T) {
	if _, err := DecodeMessage(nil); err == nil {
		t.Fatal("expected error on empty message")
	}
	// A message whose "name" is an int.
	bad := mustEncode(int64(1))
	bad = append(bad, mustEncode(Record{})...)
	if _, err := DecodeMessage(bad); err == nil || !strings.Contains(err.Error(), "not string") {
		t.Fatalf("err = %v, want non-string name error", err)
	}
	// Trailing garbage.
	good, _ := EncodeMessage(NewMessage("x", nil))
	if _, err := DecodeMessage(append(good, 0)); !errors.Is(err, ErrTrailing) {
		t.Fatalf("err = %v, want ErrTrailing", err)
	}
}

func TestMessageString(t *testing.T) {
	m := NewMessage("granted", Record{"resid": "r1", "at": int64(5)})
	got := m.String()
	if got != "granted(at=5, resid=r1)" {
		t.Fatalf("String() = %q", got)
	}
}

func TestMessageGet(t *testing.T) {
	m := NewMessage("op", Record{"k": "v"})
	if v, ok := m.Get("k"); !ok || v != "v" {
		t.Fatalf("Get(k) = %v, %v", v, ok)
	}
	if _, ok := m.Get("missing"); ok {
		t.Fatal("Get(missing) reported present")
	}
}

func TestStringListRoundTrip(t *testing.T) {
	in := []string{"r1", "r2", "r3"}
	v := roundTrip(t, Value(StringList(in)))
	out, err := ToStringSlice(v)
	if err != nil {
		t.Fatalf("ToStringSlice: %v", err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("got %v, want %v", out, in)
	}
}

func TestToStringSliceErrors(t *testing.T) {
	if _, err := ToStringSlice("not a list"); err == nil {
		t.Fatal("expected error for non-list")
	}
	if _, err := ToStringSlice(List{int64(1)}); err == nil {
		t.Fatal("expected error for non-string element")
	}
}

// Property: every generated value round-trips to a codec-equal value.
func TestPropertyRoundTrip(t *testing.T) {
	prop := func(i int64, u uint64, f float64, s string, b []byte, flag bool) bool {
		in := Record{
			"i": i, "u": u, "f": f, "s": s, "b": b, "flag": flag,
			"list": List{i, s, flag},
		}
		if math.IsNaN(f) {
			return true // NaN != NaN; covered by TestRoundTripNaN
		}
		data, err := Append(nil, in)
		if err != nil {
			return false
		}
		out, err := Decode(data)
		if err != nil {
			return false
		}
		return Equal(in, out)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: decoding never panics on arbitrary bytes.
func TestPropertyDecodeNeverPanics(t *testing.T) {
	prop := func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = Decode(data)        //nolint:errcheck // errors are expected
		_, _ = DecodeMessage(data) //nolint:errcheck
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: integers round-trip exactly through zig-zag.
func TestPropertyZigzag(t *testing.T) {
	prop := func(x int64) bool { return unzigzag(zigzag(x)) == x }
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// The package benchmarks (the CI-gated performance surface) live in
// bench_test.go.
