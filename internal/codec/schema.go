package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Schema is a compiled message layout: the message name and its field
// set, with the canonical (sorted) field order and every tag/key byte
// sequence precomputed at compile time. Encoding through a Schema is a
// straight append of precomputed headers and scalar payloads into a
// caller-supplied buffer — no map construction, no per-call sorting, no
// boxing — and produces bytes identical to AppendMessage of the
// equivalent Message.
//
// Compile schemas once (package-level vars) and reuse them for every
// message of that shape:
//
//	var schemaData = codec.CompileSchema("rdp.data", "seq", "payload")
//
//	e := schemaData.Encoder(buf[:0])
//	e.Bytes("payload", payload) // fields appended in canonical order
//	e.Uint("seq", seq)
//	wire, err := e.Finish()
type Schema struct {
	name string
	// header is the precomputed wire prefix: the encoded name value
	// followed by the record tag and field count.
	header []byte
	// fields are in canonical (sorted) order; each key holds the complete
	// encoded field key (tagString + uvarint length + name bytes).
	fields []schemaField
}

type schemaField struct {
	name string
	key  []byte
}

// CompileSchema compiles the layout of a message with the given name and
// exact field set. Field names may be given in any order; the schema
// stores them in canonical (sorted) order, which is also the order an
// Encoder requires them to be appended in (see Schema.Fields). It panics
// on duplicate or empty field names — schemas describe fixed wire shapes
// and are compiled from literals at init time.
func CompileSchema(name string, fieldNames ...string) *Schema {
	header := append([]byte{tagString}, binary.AppendUvarint(nil, uint64(len(name)))...)
	return compile(name, append(header, name...), fieldNames)
}

// CompileRecord compiles the layout of a bare record with the exact
// field set given: the same canonical field order as CompileSchema, but
// no message-name prefix. Its Encoder emits bytes identical to Append of
// the equivalent Record — the wire form of an RPC argument or result
// record (see ParseRecord for the matching view). A field that is
// sometimes omitted makes a different field set: compile one record
// schema per set.
func CompileRecord(fieldNames ...string) *Schema {
	return compile("", nil, fieldNames)
}

// compile builds a schema whose wire prefix is prefix followed by the
// record header.
func compile(name string, prefix []byte, fieldNames []string) *Schema {
	sorted := slices.Clone(fieldNames)
	slices.Sort(sorted)
	s := &Schema{name: name, header: prefix, fields: make([]schemaField, 0, len(sorted))}
	s.header = append(s.header, tagRecord)
	s.header = binary.AppendUvarint(s.header, uint64(len(sorted)))
	for i, f := range sorted {
		if f == "" {
			panic(fmt.Sprintf("codec: %s: empty field name", s))
		}
		if i > 0 && sorted[i-1] == f {
			panic(fmt.Sprintf("codec: %s: duplicate field %q", s, f))
		}
		key := make([]byte, 0, 2+len(f))
		key = append(key, tagString)
		key = binary.AppendUvarint(key, uint64(len(f)))
		key = append(key, f...)
		s.fields = append(s.fields, schemaField{name: f, key: key})
	}
	return s
}

// String names the schema in diagnostics: `schema "name"` for message
// schemas, `record schema` for bare records.
func (s *Schema) String() string {
	if s.header[0] == tagRecord {
		return "record schema"
	}
	return fmt.Sprintf("schema %q", s.name)
}

// Name returns the message name the schema encodes ("" for a record
// schema).
func (s *Schema) Name() string { return s.name }

// Fields returns the field names in canonical (encoding) order. The
// slice is shared; callers must not modify it.
func (s *Schema) Fields() []string {
	out := make([]string, len(s.fields))
	for i, f := range s.fields {
		out[i] = f.name
	}
	return out
}

// Encoder starts encoding one message with this schema, appending to buf
// (pass buf[:0] to reuse an existing allocation). Fields must then be
// appended in the schema's canonical order, each with the typed method
// matching its value; Finish returns the extended buffer.
//
// The Encoder is a value type designed to live on the caller's stack: the
// steady-state encode path performs zero heap allocations.
func (s *Schema) Encoder(buf []byte) Encoder {
	return Encoder{s: s, buf: append(buf, s.header...)}
}

// Encoder appends one message's fields in canonical order. Methods
// record the first error and make the rest of the encode a no-op; Finish
// reports it.
type Encoder struct {
	s    *Schema
	buf  []byte
	next int
	err  error
}

// field validates ordering and appends the precomputed key bytes.
//
//repolint:hotpath
func (e *Encoder) field(name string) bool {
	if e.err != nil {
		return false
	}
	if e.next >= len(e.s.fields) || e.s.fields[e.next].name != name {
		e.err = fmt.Errorf("codec: %s: field %q out of order or unknown (expect %q)", //repolint:allow alloc -- cold: schema misuse is a programming error
			e.s, name, e.expect())
		return false
	}
	e.buf = append(e.buf, e.s.fields[e.next].key...)
	e.next++
	return true
}

func (e *Encoder) expect() string {
	if e.next < len(e.s.fields) {
		return e.s.fields[e.next].name
	}
	return "<no more fields>"
}

// Uint appends an unsigned integer field.
//
//repolint:hotpath
func (e *Encoder) Uint(name string, v uint64) {
	if e.field(name) {
		e.buf = append(e.buf, tagUint)
		e.buf = binary.AppendUvarint(e.buf, v)
	}
}

// Int appends a signed integer field.
//
//repolint:hotpath
func (e *Encoder) Int(name string, v int64) {
	if e.field(name) {
		e.buf = append(e.buf, tagInt)
		e.buf = binary.AppendUvarint(e.buf, zigzag(v))
	}
}

// Bool appends a boolean field.
//
//repolint:hotpath
func (e *Encoder) Bool(name string, v bool) {
	if e.field(name) {
		if v {
			e.buf = append(e.buf, tagTrue)
		} else {
			e.buf = append(e.buf, tagFalse)
		}
	}
}

// Float appends a float64 field.
//
//repolint:hotpath
func (e *Encoder) Float(name string, v float64) {
	if e.field(name) {
		e.buf = appendFloat(e.buf, v)
	}
}

// Str appends a string field.
//
//repolint:hotpath
func (e *Encoder) Str(name, v string) {
	if e.field(name) {
		e.buf = append(e.buf, tagString)
		e.buf = binary.AppendUvarint(e.buf, uint64(len(v)))
		e.buf = append(e.buf, v...)
	}
}

// Bytes appends a byte-slice field. A nil slice encodes as empty bytes,
// exactly as AppendMessage does.
//
//repolint:hotpath
func (e *Encoder) Bytes(name string, v []byte) {
	if e.field(name) {
		e.buf = append(e.buf, tagBytes)
		e.buf = binary.AppendUvarint(e.buf, uint64(len(v)))
		e.buf = append(e.buf, v...)
	}
}

// Strings appends a list-of-strings field — the wire shape of
// StringList(v) — without boxing the elements.
//
//repolint:hotpath
func (e *Encoder) Strings(name string, v []string) {
	if e.field(name) {
		e.buf = append(e.buf, tagList)
		e.buf = binary.AppendUvarint(e.buf, uint64(len(v)))
		for _, s := range v {
			e.buf = append(e.buf, tagString)
			e.buf = binary.AppendUvarint(e.buf, uint64(len(s)))
			e.buf = append(e.buf, s...)
		}
	}
}

// Raw appends a field whose value is already in wire form (one complete
// TLV value, e.g. obtained from MsgView.Raw). The bytes are spliced in
// verbatim — the zero-copy path for forwarding a decoded field without
// rematerializing it. The caller is responsible for tlv being a single
// well-formed value; Raw rejects only the obviously malformed.
func (e *Encoder) Raw(name string, tlv []byte) {
	if e.field(name) {
		if len(tlv) == 0 {
			e.err = fmt.Errorf("codec: %s: field %q: empty raw value", e.s, name)
			return
		}
		e.buf = append(e.buf, tlv...)
	}
}

// Finish completes the message and returns the extended buffer. It fails
// if any schema field was not appended or any append errored.
func (e *Encoder) Finish() ([]byte, error) {
	if e.err != nil {
		return nil, e.err
	}
	if e.next != len(e.s.fields) {
		return nil, fmt.Errorf("codec: %s: missing field %q", e.s, e.s.fields[e.next].name)
	}
	return e.buf, nil
}

// appendFloat appends the float tag and payload without boxing.
//
//repolint:hotpath
func appendFloat(buf []byte, v float64) []byte {
	buf = append(buf, tagFloat)
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], math.Float64bits(v))
	return append(buf, tmp[:]...)
}
