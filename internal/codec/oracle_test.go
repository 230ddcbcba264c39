package codec

import "fmt"

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

// Record materializes a nested record field as a boxed Record (copying;
// safe to retain).
func (v *MsgView) Record(name string) (Record, bool) {
	raw := v.lookup(name)
	if len(raw) == 0 || raw[0] != tagRecord {
		return nil, false
	}
	val, _, err := decodeValue(raw, 0)
	if err != nil {
		return nil, false
	}
	rec, ok := val.(map[string]Value)
	return rec, ok
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
