package codec

import (
	"fmt"
	"sort"
	"strings"
)

// The tree decoders and materializers below are the reference oracle
// the view plane is checked against (FuzzCodecRoundTrip,
// TestParseMessageAgreesWithDecodeMessage): they materialize the whole
// value on the heap, which production code never needs — it reads wire
// bytes through ParseMessage / MsgView.

// DecodePrefix decodes one value from the front of data and returns the
// number of bytes consumed.
func DecodePrefix(data []byte) (Value, int, error) {
	return decodeValue(data, 0)
}

// Decode decodes exactly one value from data and fails with ErrTrailing if
// bytes remain. Integers decode as int64, unsigned integers as uint64.
func Decode(data []byte) (Value, error) {
	v, n, err := decodeValue(data, 0)
	if err != nil {
		return nil, err
	}
	if n != len(data) {
		return nil, fmt.Errorf("%w: %d of %d bytes consumed", ErrTrailing, n, len(data))
	}
	return v, nil
}

// DecodeMessage parses the wire form produced by EncodeMessage into a
// materialized Message. Unlike ParseMessage it tolerates non-canonical
// key order (the fields land in a map).
func DecodeMessage(data []byte) (Message, error) {
	nameV, n, err := DecodePrefix(data)
	if err != nil {
		return Message{}, fmt.Errorf("decode message name: %w", err)
	}
	name, ok := nameV.(string)
	if !ok {
		return Message{}, fmt.Errorf("decode message: name is %T, not string", nameV)
	}
	fieldsV, m, err := DecodePrefix(data[n:])
	if err != nil {
		return Message{}, fmt.Errorf("decode message %q fields: %w", name, err)
	}
	if n+m != len(data) {
		return Message{}, fmt.Errorf("decode message %q: %w", name, ErrTrailing)
	}
	fields, ok := fieldsV.(map[string]Value)
	if !ok {
		return Message{}, fmt.Errorf("decode message %q: fields are %T, not record", name, fieldsV)
	}
	return Message{Name: name, Fields: fields}, nil
}

// EncodeMessage produces the canonical wire form of m: AppendMessage
// into a fresh buffer.
func EncodeMessage(m Message) ([]byte, error) {
	return AppendMessage(nil, m)
}

// Get returns a named field and whether it was present.
func (m Message) Get(field string) (Value, bool) {
	v, ok := m.Fields[field]
	return v, ok
}

// Message materializes the whole view as a boxed Message, the form the
// view plane is checked against.
func (v *MsgView) Message() (Message, error) {
	rec, err := v.Fields()
	if err != nil {
		return Message{}, fmt.Errorf("decode message %q: %w", v.name, err)
	}
	return Message{Name: string(v.name), Fields: rec}, nil
}

// mustEncode returns the canonical encoding of a value known statically
// to be encodable; it panics on error. Use it only with literals.
func mustEncode(v Value) []byte {
	b, err := Append(nil, v)
	if err != nil {
		panic(err)
	}
	return b
}

// Equal reports whether two values have identical canonical encodings.
// It is the equality notion used by trace comparison.
func Equal(a, b Value) bool {
	ea, err := Append(nil, a)
	if err != nil {
		return false
	}
	eb, err := Append(nil, b)
	if err != nil {
		return false
	}
	if len(ea) != len(eb) {
		return false
	}
	for i := range ea {
		if ea[i] != eb[i] {
			return false
		}
	}
	return true
}

// String renders the message compactly for logs and test failures, with
// fields in sorted order.
func (m Message) String() string {
	keys := make([]string, 0, len(m.Fields))
	for k := range m.Fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString(m.Name)
	sb.WriteByte('(')
	for i, k := range keys {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s=%v", k, m.Fields[k])
	}
	sb.WriteByte(')')
	return sb.String()
}

// StringList converts a slice of strings to a List value; it is the wire
// shape used for resource-identifier sets in the token-based solutions.
func StringList(items []string) List {
	out := make(List, len(items))
	for i, s := range items {
		out[i] = s
	}
	return out
}

// Fields materializes every field of the view as a boxed Record
// (copying; safe to retain).
func (v *MsgView) Fields() (Record, error) {
	rec := make(Record, v.fields)
	p := v.pairs
	for i := 0; i < v.fields; i++ {
		key, kn, err := decodeLenPrefixed(p[1:])
		if err != nil {
			return nil, err
		}
		p = p[1+kn:]
		val, n, err := decodeValue(p, v.depth+1)
		if err != nil {
			return nil, fmt.Errorf("decode field %q: %w", key, err)
		}
		rec[string(key)] = val
		p = p[n:]
	}
	return rec, nil
}

// Value appends an arbitrary encodable value (nested records and lists
// included) through the generic encoder. It is the bridge for dynamic
// payloads carried inside a schema-framed message; unlike the typed
// methods it may allocate while sorting nested record keys.
func (e *Encoder) Value(name string, v Value) {
	if e.field(name) {
		buf, err := appendValue(e.buf, v, 1)
		if err != nil {
			e.err = fmt.Errorf("codec: %s: field %q: %w", e.s, name, err)
			return
		}
		e.buf = buf
	}
}
