// Package codec implements the binary wire encoding used throughout the
// repository: protocol entities encode PDUs with it, and the middleware
// platform uses it to marshal application-level data types (the
// "facilities to define application-level information attributes and to
// exchange values of these attributes" the paper attributes to middleware
// infrastructures, §4.1).
//
// The format is a compact, self-describing TLV encoding:
//
//	value  := tag payload
//	tag    := one byte (see the tag* constants)
//	uvarint lengths and counts, zig-zag varints for signed integers
//
// Records encode their fields sorted by name so that encoding is canonical:
// equal values produce identical bytes, which the conformance machinery
// relies on when comparing traces.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Errors returned by decoding, wrapped with positional context; match
// with errors.Is.
var (
	ErrTruncated   = errors.New("codec: truncated input")
	ErrBadTag      = errors.New("codec: unknown tag")
	ErrDepth       = errors.New("codec: nesting too deep")
	ErrUnsupported = errors.New("codec: unsupported Go type")
	ErrTrailing    = errors.New("codec: trailing bytes after value")
	ErrSize        = errors.New("codec: declared size exceeds input")
	// ErrNonCanonical is reported by ParseMessage for messages whose
	// top-level field keys are not strictly ascending — input no encoder
	// in this codec can produce (see MsgView).
	ErrNonCanonical = errors.New("codec: record keys not in canonical order")
)

// maxDepth bounds nesting of lists and records to keep decoding of
// malicious or corrupted input from exhausting the stack.
const maxDepth = 32

const (
	tagNil    = 0x00
	tagFalse  = 0x01
	tagTrue   = 0x02
	tagInt    = 0x03 // zig-zag varint
	tagUint   = 0x04 // uvarint
	tagFloat  = 0x05 // 8 bytes IEEE-754 big endian
	tagString = 0x06 // uvarint length + bytes
	tagBytes  = 0x07 // uvarint length + bytes
	tagList   = 0x08 // uvarint count + values
	tagRecord = 0x09 // uvarint count + (string key, value) pairs
)

// Value is the universe of encodable values. Supported dynamic types:
// nil, bool, int, int32, int64, uint32, uint64, float64, string, []byte,
// []Value and map[string]Value. Anything else fails with ErrUnsupported.
type Value = any

// List is a convenience alias for ordered collections of values.
type List = []Value

// Record is a convenience alias for named fields. Field order does not
// matter: encoding sorts keys.
type Record = map[string]Value

// Append encodes v and appends it to buf, returning the extended slice.
func Append(buf []byte, v Value) ([]byte, error) {
	return appendValue(buf, v, 0)
}

func appendValue(buf []byte, v Value, depth int) ([]byte, error) {
	if depth > maxDepth {
		return nil, ErrDepth
	}
	switch x := v.(type) {
	case nil:
		return append(buf, tagNil), nil
	case bool:
		if x {
			return append(buf, tagTrue), nil
		}
		return append(buf, tagFalse), nil
	case int:
		return appendInt(buf, int64(x)), nil
	case int32:
		return appendInt(buf, int64(x)), nil
	case int64:
		return appendInt(buf, x), nil
	case uint32:
		return appendUint(buf, uint64(x)), nil
	case uint64:
		return appendUint(buf, x), nil
	case float64:
		buf = append(buf, tagFloat)
		var tmp [8]byte
		binary.BigEndian.PutUint64(tmp[:], math.Float64bits(x))
		return append(buf, tmp[:]...), nil
	case string:
		buf = append(buf, tagString)
		buf = binary.AppendUvarint(buf, uint64(len(x)))
		return append(buf, x...), nil
	case []byte:
		buf = append(buf, tagBytes)
		buf = binary.AppendUvarint(buf, uint64(len(x)))
		return append(buf, x...), nil
	case []Value:
		buf = append(buf, tagList)
		buf = binary.AppendUvarint(buf, uint64(len(x)))
		var err error
		for _, elem := range x {
			if buf, err = appendValue(buf, elem, depth+1); err != nil {
				return nil, err
			}
		}
		return buf, nil
	case map[string]Value:
		buf = append(buf, tagRecord)
		buf = binary.AppendUvarint(buf, uint64(len(x)))
		// Sort keys on the stack for typical (small) records; only
		// oversized ones pay for a heap slice.
		var arr [16]string
		keys := arr[:0]
		if len(x) > len(arr) {
			keys = make([]string, 0, len(x))
		}
		for k := range x {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		var err error
		for _, k := range keys {
			buf = append(buf, tagString)
			buf = binary.AppendUvarint(buf, uint64(len(k)))
			buf = append(buf, k...)
			if buf, err = appendValue(buf, x[k], depth+1); err != nil {
				return nil, err
			}
		}
		return buf, nil
	default:
		return nil, fmt.Errorf("%w: %T", ErrUnsupported, v)
	}
}

func appendInt(buf []byte, x int64) []byte {
	buf = append(buf, tagInt)
	return binary.AppendUvarint(buf, zigzag(x))
}

func appendUint(buf []byte, x uint64) []byte {
	buf = append(buf, tagUint)
	return binary.AppendUvarint(buf, x)
}

func zigzag(x int64) uint64   { return uint64((x << 1) ^ (x >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// decodeValue materializes one value from the front of data, depth
// levels below the top, and returns the number of bytes consumed. It is
// the boxed decoder behind the copying MsgView accessors (Fields,
// Record, Value) and the test oracle.
func decodeValue(data []byte, depth int) (Value, int, error) {
	if depth > maxDepth {
		return nil, 0, ErrDepth
	}
	if len(data) == 0 {
		return nil, 0, ErrTruncated
	}
	tag := data[0]
	rest := data[1:]
	switch tag {
	case tagNil:
		return nil, 1, nil
	case tagFalse:
		return false, 1, nil
	case tagTrue:
		return true, 1, nil
	case tagInt:
		u, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, 0, ErrTruncated
		}
		return unzigzag(u), 1 + n, nil
	case tagUint:
		u, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, 0, ErrTruncated
		}
		return u, 1 + n, nil
	case tagFloat:
		if len(rest) < 8 {
			return nil, 0, ErrTruncated
		}
		return math.Float64frombits(binary.BigEndian.Uint64(rest)), 9, nil
	case tagString:
		s, n, err := decodeLenPrefixed(rest)
		if err != nil {
			return nil, 0, err
		}
		return string(s), 1 + n, nil
	case tagBytes:
		s, n, err := decodeLenPrefixed(rest)
		if err != nil {
			return nil, 0, err
		}
		out := make([]byte, len(s))
		copy(out, s)
		return out, 1 + n, nil
	case tagList:
		count, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, 0, ErrTruncated
		}
		if count > uint64(len(rest)) {
			return nil, 0, fmt.Errorf("%w: list of %d elements in %d bytes", ErrSize, count, len(rest))
		}
		consumed := 1 + n
		list := make([]Value, 0, count)
		for i := uint64(0); i < count; i++ {
			v, m, err := decodeValue(data[consumed:], depth+1)
			if err != nil {
				return nil, 0, fmt.Errorf("list element %d: %w", i, err)
			}
			list = append(list, v)
			consumed += m
		}
		return list, consumed, nil
	case tagRecord:
		count, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, 0, ErrTruncated
		}
		if count > uint64(len(rest)) {
			return nil, 0, fmt.Errorf("%w: record of %d fields in %d bytes", ErrSize, count, len(rest))
		}
		consumed := 1 + n
		rec := make(map[string]Value, count)
		for i := uint64(0); i < count; i++ {
			if consumed >= len(data) || data[consumed] != tagString {
				return nil, 0, fmt.Errorf("record field %d: %w (key must be string)", i, ErrBadTag)
			}
			key, kn, err := decodeLenPrefixed(data[consumed+1:])
			if err != nil {
				return nil, 0, fmt.Errorf("record field %d key: %w", i, err)
			}
			consumed += 1 + kn
			v, m, err := decodeValue(data[consumed:], depth+1)
			if err != nil {
				return nil, 0, fmt.Errorf("record field %q: %w", key, err)
			}
			rec[string(key)] = v
			consumed += m
		}
		return rec, consumed, nil
	default:
		return nil, 0, fmt.Errorf("%w: 0x%02x", ErrBadTag, tag)
	}
}

// decodeLenPrefixed returns the payload of a uvarint-length-prefixed field
// and the bytes consumed (length prefix + payload). A length below 128
// (every key, most strings) is one byte and read without a varint loop.
func decodeLenPrefixed(data []byte) ([]byte, int, error) {
	if len(data) > 0 && data[0] < 0x80 && int(data[0]) < len(data) {
		return data[1 : 1+data[0]], 1 + int(data[0]), nil
	}
	size, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, 0, ErrTruncated
	}
	if size > uint64(len(data)-n) {
		return nil, 0, fmt.Errorf("%w: need %d bytes, have %d", ErrSize, size, len(data)-n)
	}
	return data[n : n+int(size)], n + int(size), nil
}
