package codec

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzCodecRoundTrip is the codec's wire-compatibility fuzz target, run
// bounded in CI (see .github/workflows/ci.yml, fuzz job):
//
//   - decoding arbitrary bytes must never panic, whichever decoder is
//     used (Decode, DecodeMessage, ParseMessage, ParseRecord, skipValue);
//   - any accepted input is canonical-after-one-trip: re-encoding the
//     decoded value must be byte-identical under both the legacy encoder
//     and the schema-compiled encoder, and the two decode planes (the
//     boxed test oracle and the production view) must agree — the view
//     plane being strictly stricter only about canonical key order.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(mustEncode(int64(-5)))
	f.Add(mustEncode(Record{"a": uint64(1), "b": List{"x", nil, true}}))
	seedMsg, _ := EncodeMessage(NewMessage("mw.event", Record{
		"topic": "t1", "name": "update", "fields": Record{"resid": "r1", "seq": int64(9)},
	}))
	f.Add(seedMsg)
	f.Add([]byte{tagRecord, 2, tagString, 1, 'a', tagNil, tagString, 1, 'a', tagNil})
	f.Add([]byte{tagList, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Never panic, all decode planes.
		v, decodeErr := Decode(data)
		_, _ = DecodeMessage(data) //nolint:errcheck // errors expected
		_, _ = skipValue(data, 0)  //nolint:errcheck

		// The structural walker must accept what Decode accepts.
		if n, err := skipValue(data, 0); decodeErr == nil {
			if err != nil || n != len(data) {
				t.Fatalf("skipValue (%d, %v) disagrees with successful Decode of % x", n, err, data)
			}
		}

		if decodeErr == nil {
			// Encode→decode→re-encode is byte-identical: one trip through
			// the decoder canonicalizes (sorts keys, collapses duplicates),
			// after which encoding is a fixed point.
			re1, err := Append(nil, v)
			if err != nil {
				t.Fatalf("re-encode of decoded value %#v failed: %v", v, err)
			}
			v2, err := Decode(re1)
			if err != nil {
				t.Fatalf("decode of re-encoded % x failed: %v", re1, err)
			}
			re2, err := Append(nil, v2)
			if err != nil {
				t.Fatalf("second re-encode failed: %v", err)
			}
			if !bytes.Equal(re1, re2) {
				t.Fatalf("encode→decode→re-encode not byte-identical:\n re1 %x\n re2 %x", re1, re2)
			}
		}

		// Record plane: ParseRecord accepts a subset of what Decode
		// accepts as a record (it also rejects non-canonical key order),
		// and materializes to the same value.
		if rv, err := ParseRecord(data); err == nil {
			if decodeErr != nil {
				t.Fatalf("ParseRecord accepted % x, Decode rejected: %v", data, decodeErr)
			}
			fields, err := rv.Fields()
			if err != nil {
				t.Fatalf("record view materialization failed on accepted % x: %v", data, err)
			}
			if !Equal(Value(fields), v) {
				t.Fatalf("record view materialized %v, Decode %v", fields, v)
			}
		}

		// Message plane: the view parser accepts a subset of the legacy
		// parser (it additionally rejects non-canonical key order, which
		// no encoder produces); on the shared accepted set both decode
		// identically, and accepted messages re-encode identically
		// through the legacy path AND through a schema compiled from the
		// decoded shape.
		m, msgErr := DecodeMessage(data)
		view, viewErr := ParseMessage(data)
		if viewErr == nil && msgErr != nil {
			t.Fatalf("ParseMessage accepted % x, DecodeMessage rejected: %v", data, msgErr)
		}
		if msgErr == nil && viewErr != nil && !errors.Is(viewErr, ErrNonCanonical) {
			t.Fatalf("ParseMessage rejected legacy-accepted % x with %v (want ErrNonCanonical)", data, viewErr)
		}
		if msgErr == nil && viewErr == nil {
			re1, err := EncodeMessage(m)
			if err != nil {
				t.Fatalf("re-encode message failed: %v", err)
			}
			m2, err := DecodeMessage(re1)
			if err != nil {
				t.Fatalf("decode of re-encoded message failed: %v", err)
			}
			re2, err := EncodeMessage(m2)
			if err != nil {
				t.Fatalf("second message re-encode failed: %v", err)
			}
			if !bytes.Equal(re1, re2) {
				t.Fatalf("message encode→decode→re-encode not byte-identical:\n re1 %x\n re2 %x", re1, re2)
			}
			vm, err := view.Message()
			if err != nil {
				t.Fatalf("view materialization failed on accepted message: %v", err)
			}
			if !Equal(Value(vm.Fields), Value(m.Fields)) || vm.Name != m.Name {
				t.Fatalf("view materialized %v, legacy %v", vm, m)
			}
			// Schema-compiled encoding agrees with the legacy encoder on
			// the canonicalized message. Wire-valid empty keys cannot name
			// schema fields; skip those shapes.
			names := make([]string, 0, len(m.Fields))
			for k := range m.Fields {
				if k == "" {
					return
				}
				names = append(names, k)
			}
			s := CompileSchema(m.Name, names...)
			e := s.Encoder(nil)
			for _, fn := range s.Fields() {
				e.Value(fn, m.Fields[fn])
			}
			se, err := e.Finish()
			if err != nil {
				t.Fatalf("schema re-encode failed: %v", err)
			}
			if !bytes.Equal(se, re1) {
				t.Fatalf("schema re-encode differs from legacy:\nlegacy %x\nschema %x", re1, se)
			}
		}
	})
}
