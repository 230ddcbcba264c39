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

var benchSchema = CompileSchema("mw.event", "topic", "name", "fields")

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

// BenchmarkViewDecode parses the event envelope and reads every field
// through the zero-copy view. Steady state must be 0 allocs/op.
func BenchmarkViewDecode(b *testing.B) {
	data := benchEventWire(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v, err := ParseMessage(data)
		if err != nil {
			b.Fatal(err)
		}
		topic, ok := v.Str("topic")
		if !ok || len(topic) == 0 {
			b.Fatal("missing topic")
		}
		if _, ok := v.Str("name"); !ok {
			b.Fatal("missing name")
		}
		if _, ok := v.Raw("fields"); !ok {
			b.Fatal("missing fields")
		}
	}
}

// BenchmarkCodecRoundTrip is the acceptance benchmark: encode one
// representative middleware message through the compiled schema into a
// pooled buffer, then decode it through the view, per op. Steady state
// must be 0 allocs/op and ≥2× faster than the legacy
// EncodeMessage+DecodeMessage pair (BenchmarkLegacyRoundTrip).
func BenchmarkCodecRoundTrip(b *testing.B) {
	inner, err := Append(nil, benchFieldsRecord())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := GetBuffer()
		e := benchSchema.Encoder(buf.B[:0])
		e.Raw("fields", inner)
		e.Str("name", benchName)
		e.Str("topic", benchTopic)
		wire, err := e.Finish()
		if err != nil {
			b.Fatal(err)
		}
		v, err := ParseMessage(wire)
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := v.Str("topic"); !ok {
			b.Fatal("missing topic")
		}
		if _, ok := v.Raw("fields"); !ok {
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
