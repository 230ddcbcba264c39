package codec

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// TestCompileRecordMatchesAppend pins the bare-record schema encoder to
// Append of the equivalent Record, every typed method included.
func TestCompileRecordMatchesAppend(t *testing.T) {
	s := CompileRecord("tags", "n", "id", "ok", "u")
	if s.Name() != "" || s.String() != "record schema" {
		t.Fatalf("record schema names itself %q / %q", s.Name(), s)
	}
	e := s.Encoder(nil)
	e.Str("id", "x")
	e.Int("n", -4)
	e.Bool("ok", true)
	e.Strings("tags", []string{"a", "bc"})
	e.Uint("u", 9)
	got, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	want := mustEncode(Record{"id": "x", "n": int64(-4), "ok": true, "tags": StringList([]string{"a", "bc"}), "u": uint64(9)})
	if !bytes.Equal(got, want) {
		t.Fatalf("record schema bytes differ:\n got %x\nwant %x", got, want)
	}
	ee := CompileRecord().Encoder(nil)
	empty, err := ee.Finish()
	if err != nil || !bytes.Equal(empty, RawEmptyRecord) || !bytes.Equal(empty, mustEncode(Record{})) {
		t.Fatalf("empty record schema encodes % x, %v", empty, err)
	}
	// Misuse reports the record schema in its diagnostics.
	bad := s.Encoder(nil)
	bad.Str("zz", "x")
	if _, err := bad.Finish(); err == nil || !strings.Contains(err.Error(), "record schema") {
		t.Fatalf("out-of-order field error = %v", err)
	}
}

// TestParseRecord covers the record view: typed access, nested views,
// presence, string lists, materialization and rejection of corrupt or
// non-canonical input.
func TestParseRecord(t *testing.T) {
	inner := Record{"k": "v"}
	data := mustEncode(Record{"in": inner, "s": "x", "tags": List{"a", "b"}, "bad": List{"a", int64(1)}})
	v, err := ParseRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 4 || len(v.Name()) != 0 {
		t.Fatalf("record view: %d fields, name %q", v.Len(), v.Name())
	}
	rs := CompileRecord("bad", "in", "s", "tags", "zz")
	var sl Slots
	if err := rs.ParseRecord(data, &sl); err != nil {
		t.Fatal(err)
	}
	at := rs.Slot
	if s, ok := sl.StrAt(at("s")); !ok || string(s) != "x" {
		t.Fatalf("StrAt = %q, %v", s, ok)
	}
	nested, ok := sl.RecordAt(at("in"))
	if !ok {
		t.Fatal("nested record view missing")
	}
	var ns Slots
	CompileRecord("k").Resolve(&nested, &ns)
	if s, ok := ns.StrAt(0); !ok || string(s) != "v" {
		t.Fatalf("nested StrAt = %q, %v", s, ok)
	}
	if _, ok := sl.RecordAt(at("s")); ok {
		t.Fatal("RecordAt of a string field succeeded")
	}
	if !sl.Has(at("s")) || sl.Has(at("zz")) {
		t.Fatal("Has disagrees with the fields present")
	}
	if xs, ok := sl.StringsAt(at("tags"), []string{"pre"}); !ok || !reflect.DeepEqual(xs, []string{"pre", "a", "b"}) {
		t.Fatalf("StringsAt = %v, %v", xs, ok)
	}
	if xs, ok := sl.StringsAt(at("bad"), nil); ok || xs != nil {
		t.Fatalf("StringsAt over a mixed list = %v, %v", xs, ok)
	}
	if _, ok := sl.StringsAt(at("s"), nil); ok {
		t.Fatal("StringsAt over a string field succeeded")
	}
	fields, err := v.Fields()
	if err != nil || !Equal(Value(fields), mustDecode(t, data)) {
		t.Fatalf("Fields = %v, %v", fields, err)
	}

	for name, bad := range map[string][]byte{
		"empty":         nil,
		"not a record":  mustEncode("x"),
		"trailing":      append(append([]byte{}, data...), 0),
		"truncated":     data[:len(data)-1],
		"message":       mustEncodeMessage(t, NewMessage("m", inner)),
		"noncanonical":  {tagRecord, 2, tagString, 1, 'b', tagNil, tagString, 1, 'a', tagNil},
		"duplicate key": {tagRecord, 2, tagString, 1, 'a', tagNil, tagString, 1, 'a', tagNil},
	} {
		if _, err := ParseRecord(bad); err == nil {
			t.Fatalf("%s: ParseRecord(% x) succeeded", name, bad)
		}
	}
	if _, err := ParseRecord([]byte{tagRecord, 2, tagString, 1, 'b', tagNil, tagString, 1, 'a', tagNil}); !errors.Is(err, ErrNonCanonical) {
		t.Fatalf("non-canonical record: %v, want ErrNonCanonical", err)
	}
	// A nested record out of canonical order is rejected by RecordAt too.
	outer := append([]byte{tagRecord, 1}, mustEncode("in")...)
	outer = append(outer, tagRecord, 2, tagString, 1, 'b', tagNil, tagString, 1, 'a', tagNil)
	ov, err := ParseRecord(outer)
	if err != nil {
		t.Fatal(err)
	}
	var os Slots
	CompileRecord("in").Resolve(&ov, &os)
	if _, ok := os.RecordAt(0); ok {
		t.Fatal("RecordAt accepted a non-canonical nested record")
	}
}

func mustDecode(t *testing.T, data []byte) Value {
	t.Helper()
	v, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func mustEncodeMessage(t *testing.T, m Message) []byte {
	t.Helper()
	data, err := EncodeMessage(m)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
