package codec

import "fmt"

// This file is the slot plane of the decode path: a record is validated
// once against a compiled Schema, the value offset of every schema
// field it holds is kept during that same walk, and consumers read the
// fields by Slot index instead of walking the pairs again per name.
//
// A Slots is as borrowed as the view it holds: every []byte its
// accessors return, and the view itself, alias the parsed bytes under
// the package aliasing rules (see view.go). It is meant to live on the
// stack of the function that parses and be passed on by pointer; the
// offsets stay out of MsgView, which is copied by value through
// interfaces and events.

// MaxSlots is the number of fields of a schema that slots resolve: the
// first MaxSlots in canonical order. Schema.Slot rejects the rest.
const MaxSlots = 8

// Slot is the index of one field of a Schema, in canonical order.
// Resolve it once with Schema.Slot, into a package var.
type Slot uint8

// span locates one field's complete TLV value at pairs[off:end] of the
// parsed record; end == 0 marks an empty slot (no value is empty).
type span struct{ off, end int }

// Slots is one record parsed against a schema: its view and the value
// offsets of the schema's fields. An optional field is a slot left
// empty, so one superset schema reads every shape a message name takes.
type Slots struct {
	v      MsgView
	schema *Schema
	at     [MaxSlots]span
}

// Slot returns the slot of the named field. It panics when the schema
// has no such field or the field is beyond MaxSlots: slots are resolved
// from literals at init time.
func (s *Schema) Slot(name string) Slot {
	for i, f := range s.fields {
		if f.name == name {
			if i >= MaxSlots {
				panic(fmt.Sprintf("codec: %s: field %q is beyond the first %d slots", s, name, MaxSlots))
			}
			return Slot(i)
		}
	}
	panic(fmt.Sprintf("codec: %s has no field %q", s, name))
}

// slotted returns the fields of s that slots resolve, in canonical order.
//
//repolint:hotpath
func (s *Schema) slotted() []schemaField { return s.fields[:min(len(s.fields), MaxSlots)] }

// ParseRecord validates data exactly as the package-level ParseRecord
// does and resolves the fields of s into out. On error out is left
// empty: no schema, no view, every slot empty.
func (s *Schema) ParseRecord(data []byte, out *Slots) error {
	out.schema = s
	if err := parseRecord(&out.v, data, 0, s, &out.at); err != nil {
		*out = Slots{}
		return err
	}
	return nil
}

// Resolve fills out with the fields of s in v, a view already
// validated by a parse: one walk of its pairs, with no re-validation,
// and every field then read by slot.
//
//repolint:hotpath
func (s *Schema) Resolve(v *MsgView, out *Slots) {
	out.v, out.schema, out.at = *v, s, [MaxSlots]span{}
	fields := s.slotted()
	p := v.pairs
	for i, j := 0, 0; i < v.fields && j < len(fields); i++ {
		key, kn, _ := decodeLenPrefixed(p[1:]) // validated at parse
		p = p[1+kn:]
		n, _ := skipValue(p, 0)
		if k := matchField(fields, j, key); k >= 0 {
			off := len(v.pairs) - len(p)
			out.at[k] = span{off: off, end: off + n}
			j = k + 1
		}
		p = p[n:]
	}
}

// SchemaSet is a set of message schemas of distinct names — a protocol's
// PDUs ("rdp.*") or an implicit protocol's messages ("mw.*") — that one
// parse validates a message against, picking the schema by name.
type SchemaSet struct {
	schemas []*Schema
}

// NewSchemaSet builds a set of message schemas. It panics on a record
// schema or two schemas of one name: a name that takes several shapes is
// read through one superset schema, its optional fields left empty.
func NewSchemaSet(schemas ...*Schema) *SchemaSet {
	for i, s := range schemas {
		if s.header[0] == tagRecord {
			panic("codec: a schema set holds message schemas, not " + s.String())
		}
		for _, t := range schemas[:i] {
			if t.name == s.name {
				panic(fmt.Sprintf("codec: two schemas named %q in one set", s.name))
			}
		}
	}
	return &SchemaSet{schemas: schemas}
}

// Parse validates data exactly as ParseMessage does and resolves into
// out the fields of the set's schema named like the message. A name
// outside the set leaves out.Schema() nil and every slot empty; the
// message is still validated. On error out is left empty, as by
// Schema.ParseRecord.
func (set *SchemaSet) Parse(data []byte, out *Slots) error {
	if err := parseMessage(&out.v, data, set, out); err != nil {
		*out = Slots{}
		return err
	}
	return nil
}

// byName returns the schema of the given message name, or nil.
//
//repolint:hotpath
func (set *SchemaSet) byName(name []byte) *Schema {
	for _, s := range set.schemas {
		if s.name == string(name) {
			return s
		}
	}
	return nil
}

// View returns the parsed message or record, by pointer so it is not
// copied: its name, its field count, and the view another schema
// resolves (Schema.Resolve) for fields outside this one.
func (s *Slots) View() *MsgView { return &s.v }

// Schema returns the schema the slots index, nil when a SchemaSet had
// none for the message's name.
func (s *Slots) Schema() *Schema { return s.schema }

// raw returns the complete TLV value in slot i, nil when it is empty.
//
//repolint:hotpath
func (s *Slots) raw(i Slot) []byte {
	sp := s.at[i]
	if sp.end == 0 {
		return nil
	}
	return s.v.pairs[sp.off:sp.end]
}

// Has reports whether slot i holds a value, whatever its type.
//
//repolint:hotpath
func (s *Slots) Has(i Slot) bool { return s.at[i].end != 0 }

// UintAt returns the tagUint value in slot i.
//
//repolint:hotpath
func (s *Slots) UintAt(i Slot) (uint64, bool) { return rawUint(s.raw(i)) }

// IntAt returns the tagInt value in slot i.
//
//repolint:hotpath
func (s *Slots) IntAt(i Slot) (int64, bool) { return rawInt(s.raw(i)) }

// BoolAt returns the boolean value in slot i.
//
//repolint:hotpath
func (s *Slots) BoolAt(i Slot) (val, ok bool) { return rawBool(s.raw(i)) }

// StrAt returns the payload of the string in slot i, aliasing the input.
//
//repolint:hotpath
func (s *Slots) StrAt(i Slot) ([]byte, bool) { return rawLenPrefixed(s.raw(i), tagString) }

// BytesAt returns the payload of the bytes value in slot i, aliasing the
// input.
//
//repolint:hotpath
func (s *Slots) BytesAt(i Slot) ([]byte, bool) { return rawLenPrefixed(s.raw(i), tagBytes) }

// RawAt returns the complete TLV encoding of the value in slot i,
// aliasing the input — ready to splice into an Encoder with Raw.
//
//repolint:hotpath
func (s *Slots) RawAt(i Slot) ([]byte, bool) {
	raw := s.raw(i)
	return raw, raw != nil
}

// RecordAt returns a view over the record in slot i, validated like
// ParseRecord (canonical keys included), aliasing the input.
//
//repolint:hotpath
func (s *Slots) RecordAt(i Slot) (MsgView, bool) { return rawRecord(s.raw(i), s.v.depth+1) }

// StringsAt appends the elements of the list of strings in slot i to
// dst as fresh strings (copies, safe to retain). It reports false, with
// dst unchanged, when the slot is empty, not a list, or holds a
// non-string element.
func (s *Slots) StringsAt(i Slot, dst []string) ([]string, bool) {
	return rawStrings(s.raw(i), dst)
}

// ValueAt materializes the value in slot i as a boxed Value (copying).
func (s *Slots) ValueAt(i Slot) (Value, bool) {
	raw := s.raw(i)
	if raw == nil {
		return nil, false
	}
	val, _, err := decodeValue(raw, s.v.depth+1)
	return val, err == nil
}
