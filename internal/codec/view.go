package codec

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// This file is the allocation-free decode plane: MsgView walks a message
// or record in place without materializing boxed Value trees. One
// parser, parseRecord, validates every message and record; given a
// schema it also keeps the offsets of the schema's fields for the slot
// accessors of slots.go, the one way a field is read.
//
// ALIASING RULES: every []byte returned by a borrowing accessor
// (MsgView.Name, the keys All yields, Slots.StrAt, BytesAt and RawAt)
// aliases the input buffer. It is valid only until the caller returns
// control to whoever owns that buffer — for wire messages, until the
// delivery callback returns (the network recycles delivery buffers).
// Retain with an explicit copy. A MsgView or a Slots itself (including
// a view returned by RecordAt or View) is a borrowed window under the
// same rule. The materializing accessors (the values All yields,
// StringsAt, ValueAt) copy and are safe to retain.

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
// record (via ParseRecord, or Slots.RecordAt on an enclosing record).
// Parsing validates the whole value once; the slot accessors of a
// schema resolved in the view then read individual fields directly from
// the wire bytes without allocating. See the package
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
// values, string keys, no trailing bytes), so slot accessor misses mean
// "field absent or wrong type", never "corrupt input".
//
// ParseMessage additionally requires the top-level field keys to be in
// canonical form — strictly ascending, hence unique — which is the only
// form any encoder in this package produces. Non-canonical messages fail
// with ErrNonCanonical (a map-building decoder would tolerate them by
// map overwrite); this is what lets a slot pass match the keys against
// a schema's fields with a cursor that only moves forward.
func ParseMessage(data []byte) (MsgView, error) {
	var v MsgView
	err := parseMessage(&v, data, nil, nil)
	return v, err
}

// parseMessage validates one message into *v. When set is non-nil it is
// the slot pass of parseRecord against the set's schema for the
// message's name, recorded in at (see SchemaSet.Parse).
func parseMessage(v *MsgView, data []byte, set *SchemaSet, out *Slots) error {
	if len(data) == 0 || data[0] != tagString {
		return fmt.Errorf("decode message name: %w", errOrTruncated(data))
	}
	name, n, err := decodeLenPrefixed(data[1:])
	if err != nil {
		return fmt.Errorf("decode message name: %w", err)
	}
	var s *Schema
	var at *[MaxSlots]span
	if set != nil {
		s = set.byName(name)
		out.schema, at = s, &out.at
	}
	if err := parseRecord(v, data[1+n:], 0, s, at); err != nil {
		return fmt.Errorf("decode message %q: %w", name, err)
	}
	v.name = name
	return nil
}

// ParseRecord validates data as exactly one encoded record value (the
// wire form of Append on a Record, or of a CompileRecord schema) and
// returns a view over its fields. It applies the same checks as
// ParseMessage — well-formed values, canonical key order, no trailing
// bytes — and the view obeys the same aliasing rules. Name is empty.
func ParseRecord(data []byte) (MsgView, error) {
	var v MsgView
	err := parseRecord(&v, data, 0, nil, nil)
	return v, err
}

// parseRecord validates one record value spanning all of data, nested
// depth levels below the top, into *v. It is the one parser of the
// decode plane. With a schema s it is also the slot pass: while it walks
// the pairs it validates anyway, it records in at the value offset of
// every field of s it meets, so a consumer then reads each field by Slot
// without a second walk. Acceptance does not depend on s — a field s
// lacks is validated and skipped, a field s has that the record lacks
// leaves its slot empty.
func parseRecord(v *MsgView, data []byte, depth int, s *Schema, at *[MaxSlots]span) error {
	if depth > maxDepth {
		return ErrDepth
	}
	if len(data) == 0 || data[0] != tagRecord {
		return fmt.Errorf("fields are not a record: %w", errOrTruncated(data))
	}
	count, cn := binary.Uvarint(data[1:])
	if cn <= 0 {
		return fmt.Errorf("fields: %w", ErrTruncated)
	}
	if count > uint64(len(data)) {
		return fmt.Errorf("fields: %w: record of %d fields in %d bytes", ErrSize, count, len(data))
	}
	var fields []schemaField
	if s != nil {
		fields = s.slotted()
	}
	if at != nil {
		*at = [MaxSlots]span{}
	}
	pairs := data[1+cn:]
	p := pairs
	var prev []byte
	prevSlot := false
	j := 0 // the next schema field a key can match: keys ascend
	for i := uint64(0); i < count; i++ {
		if len(p) == 0 || p[0] != tagString {
			return fmt.Errorf("field %d: %w (key must be string)", i, ErrBadTag)
		}
		key, kn, err := decodeLenPrefixed(p[1:])
		if err != nil {
			return fmt.Errorf("field %d key: %w", i, err)
		}
		k := matchField(fields, j, key)
		// Two keys that both matched schema fields ascend already: j
		// only moves forward over strictly ascending names.
		if i > 0 && (k < 0 || !prevSlot) && bytes.Compare(prev, key) >= 0 {
			return fmt.Errorf("key %q after %q: %w", key, prev, ErrNonCanonical)
		}
		prev, prevSlot = key, k >= 0
		p = p[1+kn:]
		m, err := skipValue(p, depth+1)
		if err != nil {
			return fmt.Errorf("field %q: %w", key, err)
		}
		if k >= 0 {
			off := len(pairs) - len(p)
			at[k] = span{off: off, end: off + m}
			j = k + 1
		}
		p = p[m:]
	}
	if len(p) != 0 {
		return ErrTrailing
	}
	*v = MsgView{pairs: pairs, fields: int(count), depth: depth}
	return nil
}

// matchField returns the index of the field named key among fields[j:],
// or -1. Names are compared by length first, so a miss rarely reads the
// bytes; the fields before j were met already or sort before an earlier
// key.
//
//repolint:hotpath
func matchField(fields []schemaField, j int, key []byte) int {
	for k := j; k < len(fields); k++ {
		if fields[k].name == string(key) {
			return k
		}
	}
	return -1
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

// All yields every field of the view in wire (canonical) order: its key,
// aliasing the input, and its value materialized as a boxed Value
// (copying). Range over it: for key, val := range v.All.
func (v *MsgView) All(yield func(key []byte, val Value) bool) {
	for p, i := v.pairs, 0; i < v.fields; i++ {
		key, kn, _ := decodeLenPrefixed(p[1:])        // validated at parse
		val, n, _ := decodeValue(p[1+kn:], v.depth+1) // likewise
		if !yield(key, val) {
			return
		}
		p = p[1+kn+n:]
	}
}

// The value readers below decode one complete TLV value (nil = an empty
// slot) as the slot accessors return it.

//repolint:hotpath
func rawUint(raw []byte) (uint64, bool) {
	if len(raw) == 0 || raw[0] != tagUint {
		return 0, false
	}
	u, n := binary.Uvarint(raw[1:])
	return u, n > 0
}

//repolint:hotpath
func rawInt(raw []byte) (int64, bool) {
	if len(raw) == 0 || raw[0] != tagInt {
		return 0, false
	}
	u, n := binary.Uvarint(raw[1:])
	return unzigzag(u), n > 0
}

//repolint:hotpath
func rawBool(raw []byte) (val, ok bool) {
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

// rawLenPrefixed returns the payload of a string or bytes value (tag).
//
//repolint:hotpath
func rawLenPrefixed(raw []byte, tag byte) ([]byte, bool) {
	if len(raw) == 0 || raw[0] != tag {
		return nil, false
	}
	s, _, err := decodeLenPrefixed(raw[1:])
	return s, err == nil
}

// rawRecord parses a record value nested depth levels down.
func rawRecord(raw []byte, depth int) (MsgView, bool) {
	if len(raw) == 0 || raw[0] != tagRecord {
		return MsgView{}, false
	}
	var nested MsgView
	if err := parseRecord(&nested, raw, depth, nil, nil); err != nil {
		return MsgView{}, false
	}
	return nested, true
}

func rawStrings(raw []byte, dst []string) ([]string, bool) {
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
