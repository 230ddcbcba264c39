package codec

import (
	"testing"
)

// The benchmarks below are the codec's permanent performance surface:
// cmd/benchcmp compares their results against the committed
// BENCH_codec.json baseline in the CI bench-regression job. Names are
// load-bearing — renaming one silently drops it from the gate until the
// baseline is refreshed (make bench-baseline-codec).
//
// The representative message is a middleware pub/sub event as fanned out
// by Platform.Publish: topic + name + a three-field application record —
// the shape every subscriber decodes once per delivery.

// BenchmarkCalibrate is the fixed arithmetic workload cmd/benchcmp uses
// (-normalize Calibrate) to factor machine speed out of cross-host
// comparisons. It must stay identical to its internal/sim twin.
func BenchmarkCalibrate(b *testing.B) {
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < b.N; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	benchSink = x
}

var benchSink uint64

var (
	benchSchema = CompileSchema("mw.event", "topic", "name", "fields")
	benchSet    = NewSchemaSet(benchSchema)
	benchFields = benchSchema.Slot("fields")
	benchNameAt = benchSchema.Slot("name")
	benchTopAt  = benchSchema.Slot("topic")
)

const (
	benchTopic = "floor/resource-3"
	benchName  = "request"
)

func benchFieldsRecord() Record {
	return Record{"subid": "subscriber-17", "resid": "resource-3", "seq": int64(12345)}
}

// benchWire returns the canonical wire form of the representative
// message (identical whichever encoder produced it).
func benchWire(b *testing.B) []byte {
	b.Helper()
	data, err := EncodeMessage(NewMessage(benchName, benchFieldsRecord()))
	if err != nil {
		b.Fatal(err)
	}
	return data
}

// benchEventWire is the full pub/sub envelope: fields is the nested
// application record.
func benchEventWire(b *testing.B) []byte {
	b.Helper()
	data, err := EncodeMessage(NewMessage("mw.event", Record{
		"topic": benchTopic, "name": benchName, "fields": benchFieldsRecord(),
	}))
	if err != nil {
		b.Fatal(err)
	}
	return data
}

// BenchmarkEncodeMessage is the legacy boxed encode path (pre-PR
// baseline for the schema path's speedup).
func BenchmarkEncodeMessage(b *testing.B) {
	m := NewMessage(benchName, benchFieldsRecord())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeMessage(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeMessage is the legacy boxed decode path.
func BenchmarkDecodeMessage(b *testing.B) {
	data := benchWire(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeMessage(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchemaEncode is the compiled-schema encode of the event
// envelope into a reused buffer, with the nested record spliced raw —
// the middleware fan-out path. Steady state must be 0 allocs/op.
func BenchmarkSchemaEncode(b *testing.B) {
	inner, err := Append(nil, benchFieldsRecord())
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := benchSchema.Encoder(buf[:0])
		e.Raw("fields", inner)
		e.Str("name", benchName)
		e.Str("topic", benchTopic)
		out, err := e.Finish()
		if err != nil {
			b.Fatal(err)
		}
		buf = out[:0]
	}
}

// BenchmarkViewDecode parses the event envelope against its schema and
// reads every field by slot. Steady state must be 0 allocs/op.
func BenchmarkViewDecode(b *testing.B) {
	data := benchEventWire(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var sl Slots
		if err := benchSet.Parse(data, &sl); err != nil {
			b.Fatal(err)
		}
		topic, ok := sl.StrAt(benchTopAt)
		if !ok || len(topic) == 0 {
			b.Fatal("missing topic")
		}
		if _, ok := sl.StrAt(benchNameAt); !ok {
			b.Fatal("missing name")
		}
		if _, ok := sl.RawAt(benchFields); !ok {
			b.Fatal("missing fields")
		}
	}
}

// BenchmarkCodecRoundTrip is the acceptance benchmark: encode one
// representative middleware message through the compiled schema into a
// pooled buffer, then parse it against the schema and read it by slot,
// per op. Steady state
// must be 0 allocs/op and ≥2× faster than the legacy
// EncodeMessage+DecodeMessage pair (BenchmarkLegacyRoundTrip).
func BenchmarkCodecRoundTrip(b *testing.B) {
	inner, err := Append(nil, benchFieldsRecord())
	if err != nil {
		b.Fatal(err)
	}
	var bufs BufferList
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := bufs.Get()
		e := benchSchema.Encoder(buf.B[:0])
		e.Raw("fields", inner)
		e.Str("name", benchName)
		e.Str("topic", benchTopic)
		wire, err := e.Finish()
		if err != nil {
			b.Fatal(err)
		}
		var sl Slots
		if err := benchSet.Parse(wire, &sl); err != nil {
			b.Fatal(err)
		}
		if _, ok := sl.StrAt(benchTopAt); !ok {
			b.Fatal("missing topic")
		}
		if _, ok := sl.RawAt(benchFields); !ok {
			b.Fatal("missing fields")
		}
		buf.B = wire
		buf.Release()
	}
}

// BenchmarkLegacyRoundTrip is the boxed EncodeMessage+DecodeMessage pair
// on the same envelope — the pre-PR data plane, kept as the comparison
// point for BenchmarkCodecRoundTrip.
func BenchmarkLegacyRoundTrip(b *testing.B) {
	m := NewMessage("mw.event", Record{
		"topic": benchTopic, "name": benchName, "fields": benchFieldsRecord(),
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wire, err := EncodeMessage(m)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeMessage(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchemaParse is the slot plane on the two hottest messages:
// one slot parse of an rdp.data PDU and of an mw.call whose nested
// argument record is then resolved, with every field of each read by
// slot. Steady state must be 0 allocs/op.
func BenchmarkSchemaParse(b *testing.B) {
	seeds := slotSeeds(b)
	rdp, call := seeds[0], seeds[3]
	rdpSet, mwSet, argsSchema := fuzzSets[0], fuzzSets[1], fuzzRecords[0]
	var (
		sInc, sPayload, sRinc, sSeq = slotRdpData.Slot("inc"), slotRdpData.Slot("payload"), slotRdpData.Slot("rinc"), slotRdpData.Slot("seq")
		sArgs, sID, sOp, sTarget    = slotMwCall.Slot("args"), slotMwCall.Slot("id"), slotMwCall.Slot("op"), slotMwCall.Slot("target")
		sRes, sSeqArg, sSub         = argsSchema.Slot("resid"), argsSchema.Slot("seq"), argsSchema.Slot("subid")
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var sl, as Slots
		if err := rdpSet.Parse(rdp, &sl); err != nil {
			b.Fatal(err)
		}
		_, _ = sl.UintAt(sInc)
		_, _ = sl.UintAt(sRinc)
		if _, ok := sl.UintAt(sSeq); !ok {
			b.Fatal("missing seq")
		}
		if _, ok := sl.BytesAt(sPayload); !ok {
			b.Fatal("missing payload")
		}
		if err := mwSet.Parse(call, &sl); err != nil {
			b.Fatal(err)
		}
		if _, ok := sl.UintAt(sID); !ok {
			b.Fatal("missing id")
		}
		if _, ok := sl.StrAt(sOp); !ok {
			b.Fatal("missing op")
		}
		if _, ok := sl.StrAt(sTarget); !ok {
			b.Fatal("missing target")
		}
		args, ok := sl.RecordAt(sArgs)
		if !ok {
			b.Fatal("missing args")
		}
		argsSchema.Resolve(&args, &as)
		_, _ = as.IntAt(sSeqArg)
		if _, ok := as.StrAt(sRes); !ok {
			b.Fatal("missing resid")
		}
		if _, ok := as.StrAt(sSub); !ok {
			b.Fatal("missing subid")
		}
	}
}
