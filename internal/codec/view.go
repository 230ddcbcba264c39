package codec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
)

// This file is the allocation-free decode plane: MsgView walks a message
// or record in place without materializing boxed Value trees.
//
// ALIASING RULES: every []byte returned by a MsgView accessor (Name, Str,
// Bytes, Raw) aliases the input buffer. It is valid only until the caller returns control to whoever
// owns that buffer — for wire messages, until the delivery callback
// returns (the network recycles delivery buffers). Retain with an
// explicit copy. A MsgView itself (including one returned by View) is a
// borrowed window under the same rule. Materializing accessors (Fields,
// Value, Strings) copy and are safe to retain.

// RawNil is the complete wire encoding of the nil value — the fallback
// for splicing an absent field into an Encoder with Raw. Callers must
// not modify it.
var RawNil = []byte{tagNil}

// RawEmptyRecord is the complete wire encoding of an empty record — the
// argument or result of a void operation. Callers must not modify it.
var RawEmptyRecord = []byte{tagRecord, 0}

// skipValue returns the length of the single value at the front of data
// without materializing it.
func skipValue(data []byte, depth int) (int, error) {
	if depth > maxDepth {
		return 0, ErrDepth
	}
	if len(data) == 0 {
		return 0, ErrTruncated
	}
	rest := data[1:]
	switch tag := data[0]; tag {
	case tagNil, tagFalse, tagTrue:
		return 1, nil
	case tagInt, tagUint:
		_, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, ErrTruncated
		}
		return 1 + n, nil
	case tagFloat:
		if len(rest) < 8 {
			return 0, ErrTruncated
		}
		return 9, nil
	case tagString, tagBytes:
		_, n, err := decodeLenPrefixed(rest)
		if err != nil {
			return 0, err
		}
		return 1 + n, nil
	case tagList:
		count, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, ErrTruncated
		}
		if count > uint64(len(rest)) {
			return 0, fmt.Errorf("%w: list of %d elements in %d bytes", ErrSize, count, len(rest))
		}
		consumed := 1 + n
		for i := uint64(0); i < count; i++ {
			m, err := skipValue(data[consumed:], depth+1)
			if err != nil {
				return 0, fmt.Errorf("list element %d: %w", i, err)
			}
			consumed += m
		}
		return consumed, nil
	case tagRecord:
		count, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, ErrTruncated
		}
		if count > uint64(len(rest)) {
			return 0, fmt.Errorf("%w: record of %d fields in %d bytes", ErrSize, count, len(rest))
		}
		consumed := 1 + n
		for i := uint64(0); i < count; i++ {
			if consumed >= len(data) || data[consumed] != tagString {
				return 0, fmt.Errorf("record field %d: %w (key must be string)", i, ErrBadTag)
			}
			_, kn, err := decodeLenPrefixed(data[consumed+1:])
			if err != nil {
				return 0, fmt.Errorf("record field %d key: %w", i, err)
			}
			consumed += 1 + kn
			m, err := skipValue(data[consumed:], depth+1)
			if err != nil {
				return 0, fmt.Errorf("record field %d: %w", i, err)
			}
			consumed += m
		}
		return consumed, nil
	default:
		return 0, fmt.Errorf("%w: 0x%02x", ErrBadTag, tag)
	}
}

// MsgView is a zero-copy window on one encoded message (the wire form of
// AppendMessage or a message Schema, via ParseMessage) or one encoded
// record (via ParseRecord, or View on an enclosing view). Parsing validates the
// whole value once; the typed accessors then read individual fields
// directly from the wire bytes without allocating. See the package
// aliasing rules above: a view, and every view nested in it, is valid
// only as long as the bytes it was parsed from.
type MsgView struct {
	name   []byte
	pairs  []byte // the field pairs, immediately after the record header
	fields int
	depth  int // nesting level of the record (0 = top level)
}

// ParseMessage validates data as one complete message and returns a view
// over it. The message is fully structure-checked here (well-formed
// values, string keys, no trailing bytes), so accessor misses mean
// "field absent or wrong type", never "corrupt input".
//
// ParseMessage additionally requires the top-level field keys to be in
// canonical form — strictly ascending, hence unique — which is the only
// form any encoder in this package produces. Non-canonical messages fail
// with ErrNonCanonical (a map-building decoder would tolerate them by
// map overwrite); this is what lets the sorted-order early exit in field
// lookup be exact rather than heuristic.
func ParseMessage(data []byte) (MsgView, error) {
	if len(data) == 0 || data[0] != tagString {
		return MsgView{}, fmt.Errorf("decode message name: %w", errOrTruncated(data))
	}
	name, n, err := decodeLenPrefixed(data[1:])
	if err != nil {
		return MsgView{}, fmt.Errorf("decode message name: %w", err)
	}
	v, err := parseRecord(data[1+n:], 0)
	if err != nil {
		return MsgView{}, fmt.Errorf("decode message %q: %w", name, err)
	}
	v.name = name
	return v, nil
}

// ParseRecord validates data as exactly one encoded record value (the
// wire form of Append on a Record, or of a CompileRecord schema) and
// returns a view over its fields. It applies the same checks as
// ParseMessage — well-formed values, canonical key order, no trailing
// bytes — and the view obeys the same aliasing rules. Name is empty.
func ParseRecord(data []byte) (MsgView, error) {
	return parseRecord(data, 0)
}

// parseRecord validates one record value spanning all of data, nested
// depth levels below the top.
func parseRecord(data []byte, depth int) (MsgView, error) {
	if depth > maxDepth {
		return MsgView{}, ErrDepth
	}
	if len(data) == 0 || data[0] != tagRecord {
		return MsgView{}, fmt.Errorf("fields are not a record: %w", errOrTruncated(data))
	}
	count, cn := binary.Uvarint(data[1:])
	if cn <= 0 {
		return MsgView{}, fmt.Errorf("fields: %w", ErrTruncated)
	}
	if count > uint64(len(data)) {
		return MsgView{}, fmt.Errorf("fields: %w: record of %d fields in %d bytes", ErrSize, count, len(data))
	}
	pairs := data[1+cn:]
	p := pairs
	var prev []byte
	for i := uint64(0); i < count; i++ {
		if len(p) == 0 || p[0] != tagString {
			return MsgView{}, fmt.Errorf("field %d: %w (key must be string)", i, ErrBadTag)
		}
		key, kn, err := decodeLenPrefixed(p[1:])
		if err != nil {
			return MsgView{}, fmt.Errorf("field %d key: %w", i, err)
		}
		if i > 0 && bytes.Compare(prev, key) >= 0 {
			return MsgView{}, fmt.Errorf("key %q after %q: %w", key, prev, ErrNonCanonical)
		}
		prev = key
		p = p[1+kn:]
		m, err := skipValue(p, depth+1)
		if err != nil {
			return MsgView{}, fmt.Errorf("field %q: %w", key, err)
		}
		p = p[m:]
	}
	if len(p) != 0 {
		return MsgView{}, ErrTrailing
	}
	return MsgView{pairs: pairs, fields: int(count), depth: depth}, nil
}

// errOrTruncated distinguishes "nothing there" from "wrong tag".
func errOrTruncated(data []byte) error {
	if len(data) == 0 {
		return ErrTruncated
	}
	return fmt.Errorf("%w: 0x%02x", ErrBadTag, data[0])
}

// Name returns the message name as raw bytes aliasing the input. Compare
// with string(v.Name()) == "x" or switch on string(v.Name()) — the
// compiler performs both without allocating.
func (v *MsgView) Name() []byte { return v.name }

// NameIs reports whether the message name equals s.
func (v *MsgView) NameIs(s string) bool { return string(v.name) == s }

// Len returns the number of fields.
func (v *MsgView) Len() int { return v.fields }

// lookup returns the raw TLV bytes of the named field. Keys are sorted
// on the wire, so the scan stops early once past name. The structure was
// validated by ParseMessage, so navigation errors cannot occur.
//
//repolint:hotpath
func (v *MsgView) lookup(name string) []byte {
	p := v.pairs
	for i := 0; i < v.fields; i++ {
		key, kn, err := decodeLenPrefixed(p[1:]) // p[0] == tagString, validated
		if err != nil {
			return nil
		}
		p = p[1+kn:]
		n, err := skipValue(p, 0)
		if err != nil {
			return nil
		}
		switch compareKey(key, name) {
		case 0:
			return p[:n]
		case 1:
			return nil // sorted: name cannot appear later
		}
		p = p[n:]
	}
	return nil
}

// compareKey orders a wire key against a field name without converting
// either (bytes.Compare would need an allocating []byte(name)).
//
//repolint:hotpath
func compareKey(key []byte, name string) int {
	n := len(key)
	if len(name) < n {
		n = len(name)
	}
	for i := 0; i < n; i++ {
		if key[i] != name[i] {
			if key[i] < name[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(key) < len(name):
		return -1
	case len(key) > len(name):
		return 1
	}
	return 0
}

// Uint returns a tagUint field.
//
//repolint:hotpath
func (v *MsgView) Uint(name string) (uint64, bool) {
	raw := v.lookup(name)
	if len(raw) == 0 || raw[0] != tagUint {
		return 0, false
	}
	u, n := binary.Uvarint(raw[1:])
	return u, n > 0
}

// Int returns a tagInt field.
//
//repolint:hotpath
func (v *MsgView) Int(name string) (int64, bool) {
	raw := v.lookup(name)
	if len(raw) == 0 || raw[0] != tagInt {
		return 0, false
	}
	u, n := binary.Uvarint(raw[1:])
	return unzigzag(u), n > 0
}

// Bool returns a boolean field.
//
//repolint:hotpath
func (v *MsgView) Bool(name string) (val, ok bool) {
	raw := v.lookup(name)
	if len(raw) == 0 {
		return false, false
	}
	switch raw[0] {
	case tagTrue:
		return true, true
	case tagFalse:
		return false, true
	}
	return false, false
}

// Float returns a tagFloat field.
//
//repolint:hotpath
func (v *MsgView) Float(name string) (float64, bool) {
	raw := v.lookup(name)
	if len(raw) != 9 || raw[0] != tagFloat {
		return 0, false
	}
	return math.Float64frombits(binary.BigEndian.Uint64(raw[1:])), true
}

// Str returns the payload of a string field, aliasing the input buffer.
//
//repolint:hotpath
func (v *MsgView) Str(name string) ([]byte, bool) {
	raw := v.lookup(name)
	if len(raw) == 0 || raw[0] != tagString {
		return nil, false
	}
	s, _, err := decodeLenPrefixed(raw[1:])
	return s, err == nil
}

// Bytes returns the payload of a bytes field, aliasing the input buffer.
//
//repolint:hotpath
func (v *MsgView) Bytes(name string) ([]byte, bool) {
	raw := v.lookup(name)
	if len(raw) == 0 || raw[0] != tagBytes {
		return nil, false
	}
	s, _, err := decodeLenPrefixed(raw[1:])
	return s, err == nil
}

// Raw returns the complete TLV encoding of the named field's value,
// aliasing the input buffer — ready to splice into an Encoder with Raw.
//
//repolint:hotpath
func (v *MsgView) Raw(name string) ([]byte, bool) {
	raw := v.lookup(name)
	return raw, raw != nil
}

// Value materializes any field as a boxed Value (copying).
func (v *MsgView) Value(name string) (Value, bool) {
	raw := v.lookup(name)
	if raw == nil {
		return nil, false
	}
	val, _, err := decodeValue(raw, 0)
	if err != nil {
		return nil, false
	}
	return val, true
}

// View returns a view over a nested record field, validated like
// ParseRecord (canonical keys included), aliasing the input buffer.
func (v *MsgView) View(name string) (MsgView, bool) {
	raw := v.lookup(name)
	if len(raw) == 0 || raw[0] != tagRecord {
		return MsgView{}, false
	}
	nested, err := parseRecord(raw, v.depth+1)
	if err != nil {
		return MsgView{}, false
	}
	return nested, true
}

// Has reports whether the named field is present, whatever its type —
// what tells an absent field from a mistyped one after a typed accessor
// misses.
func (v *MsgView) Has(name string) bool { return v.lookup(name) != nil }

// Strings appends the elements of a list-of-strings field to dst as
// fresh strings (copies, safe to retain). It reports false, with dst
// unchanged, when the field is absent, not a list, or holds a non-string
// element.
func (v *MsgView) Strings(name string, dst []string) ([]string, bool) {
	raw := v.lookup(name)
	if len(raw) == 0 || raw[0] != tagList {
		return dst, false
	}
	count, n := binary.Uvarint(raw[1:])
	if n <= 0 {
		return dst, false
	}
	out := dst
	p := raw[1+n:]
	for i := uint64(0); i < count; i++ {
		if len(p) == 0 || p[0] != tagString {
			return dst, false
		}
		s, sn, err := decodeLenPrefixed(p[1:])
		if err != nil {
			return dst, false
		}
		out = append(out, string(s))
		p = p[1+sn:]
	}
	return out, true
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
