package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/fanout"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/runner"
	"repro/internal/sim"
)

// smokeDiv divides the XL populations so every workload runs in a test.
const smokeDiv = 1024

// TestWorkloadSmoke runs every workload untraced and traced and requires
// byte-identical reports, the committed digest where one applies, and
// spans from the layers the traced run instruments.
func TestWorkloadSmoke(t *testing.T) {
	wantSpans := map[string][]string{
		"default-band": {"floorcontrol.build", "floorcontrol.run", "floorcontrol.acquire", "protocol.send", "protocol.deliver"},
		"churn-band":   {"floorcontrol.run", "floorcontrol.release", "protocol.send"},
		"floor-xl":     {"floorcontrol.setup", "floorcontrol.finish", "floorcontrol.acquire"},
		"fanout-xl":    {"middleware.subscribe", "middleware.publish", "middleware.run"},
	}
	for _, w := range workloads(smokeDiv) {
		t.Run(w.name, func(t *testing.T) {
			if testing.Short() && w.name == "default-band" {
				t.Skip("default band takes about a second per pass")
			}
			gc := startGCWatch()
			defer gc.stop()
			var log bytes.Buffer
			want, ref, err := reference(w, w.scenarios(), goldenSeed, gc, &log)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			traced, err := tracedScenarios(w, tr)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := timedPass(w, traced, goldenSeed, gc, want); err != nil {
				t.Fatalf("traced pass: %v", err)
			}
			for _, name := range wantSpans[w.name] {
				if tr.span(name).count == 0 {
					t.Errorf("no %s spans", name)
				}
			}
			if tr.counts["sim.events"] == 0 || tr.counts["network.sent"] == 0 {
				t.Errorf("layer counters not read: %v", tr.counts)
			}
			attempted, failed := opCounts(ref)
			if attempted == 0 || (failed != 0) != w.churn {
				t.Errorf("operations: %g failed of %g", failed, attempted)
			}
		})
	}
}

// TestDefaultBandDigestIsGolden keeps the benchmark's default-band digest
// equal to the hash runner's golden test pins.
func TestDefaultBandDigestIsGolden(t *testing.T) {
	w, err := findWorkload("default-band", smokeDiv)
	if err != nil {
		t.Fatal(err)
	}
	const golden = "36e197fa96a00e353f98f4150304a16f276b537b3b4d690384cbe543e493acec"
	if w.digest != golden {
		t.Fatalf("default-band digest %s, want %s", w.digest, golden)
	}
}

// TestChurnBandFailShare pins the churn band's unserved-acquire share at
// the golden seed: 100 of 1,641 acquires.
func TestChurnBandFailShare(t *testing.T) {
	w, err := findWorkload("churn-band", smokeDiv)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runner.Sweep(w.band(), runner.Options{Workers: 1, BaseSeed: goldenSeed})
	if err != nil {
		t.Fatal(err)
	}
	if attempted, failed := opCounts(rep); attempted != 1641 || failed != 100 {
		t.Fatalf("%g of %g acquires unserved, want 100 of 1641", failed, attempted)
	}
}

// TestTracedFanoutEqualsRun checks the fan-out re-drive against
// fanout.Run, federated and flat.
func TestTracedFanoutEqualsRun(t *testing.T) {
	for _, cfg := range []fanout.Config{
		*workloads(smokeDiv)[3].fan,
		{Subscribers: 300, Nodes: 40, Leaves: 3, Events: 3, PayloadBytes: 16},
		{Subscribers: 64, Nodes: 64, Events: 2},
	} {
		cfg.Seed = 99
		want, err := fanout.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tracedFanout(cfg, newTracer())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: re-drive %s, fanout.Run %s", cfg.ScenarioID(), got.SummaryLine(), want.SummaryLine())
		}
	}
}

// TestSelfTime checks span self time on nested spans: a parent's self
// time excludes its children's whole duration, grandchildren included,
// exactly once.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	var clock time.Duration
	tr.now = func() time.Duration { return clock }
	at := func(d time.Duration) { clock = d }

	at(0)
	tr.begin("a")
	at(2)
	tr.begin("b")
	at(3)
	tr.begin("c")
	at(4)
	tr.end() // c: 1
	at(5)
	tr.end() // b: 3, self 2
	at(6)
	tr.begin("c")
	at(8)
	tr.end() // c: 2
	at(10)
	tr.end() // a: 10, self 10-3-2 = 5
	tr.add("phase", 7, 7)

	for name, want := range map[string]spanAgg{
		"a":     {count: 1, total: 10, self: 5},
		"b":     {count: 1, total: 3, self: 2},
		"c":     {count: 2, total: 3, self: 3},
		"phase": {count: 1, total: 7, self: 7},
	} {
		if got := tr.span(name); got != want {
			t.Errorf("%s: got %+v, want %+v", name, got, want)
		}
	}
	if len(tr.open) != 0 {
		t.Errorf("%d spans left open", len(tr.open))
	}
}

// TestCalibration checks the kernel batch and the arithmetic that scales
// a pass by it.
func TestCalibration(t *testing.T) {
	k := calibrate(0)
	if k.wall <= 0 || k.cpu <= 0 {
		t.Fatalf("kernel cost %+v", k)
	}
	a := calibration{wall: 4 * time.Millisecond, cpu: 6 * time.Millisecond}
	b := calibration{wall: 8 * time.Millisecond, cpu: 2 * time.Millisecond}
	if got, want := around(a, b), (calibration{wall: 6 * time.Millisecond, cpu: 4 * time.Millisecond}); got != want {
		t.Errorf("around = %+v, want %+v", got, want)
	}
	// A pass that costs 100 kernel calls reads as 100 calls of calibRef.
	if got, want := inRef(600*time.Millisecond, 6*time.Millisecond), 100*calibRef.Seconds(); math.Abs(got-want) > 1e-12 {
		t.Errorf("inRef = %g, want %g", got, want)
	}
}

// TestCalibratedPassJoinsSweeps checks that a pass run as several
// calibrated sweeps reports what one sweep over the same scenarios does.
func TestCalibratedPassJoinsSweeps(t *testing.T) {
	w, err := findWorkload("churn-band", smokeDiv)
	if err != nil {
		t.Fatal(err)
	}
	band := len(w.band())
	scenarios := w.scenarios()[:2*band]
	want, err := runner.Sweep(scenarios, runner.Options{Workers: 1, BaseSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	wantDigest, err := w.checked(want)
	if err != nil {
		t.Fatal(err)
	}
	gc := startGCWatch()
	defer gc.stop()
	got, st, err := newCalibrator().pass(scenarios, band, 7, gc)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.reproduces(got, wantDigest); err != nil {
		t.Fatal(err)
	}
	if len(st.scenarioWall) != len(scenarios) || st.wallRef <= 0 || st.cpuRef <= 0 {
		t.Fatalf("pass stats: %d scenario times, calibrated wall %g, cpu %g", len(st.scenarioWall), st.wallRef, st.cpuRef)
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "repro/internal/codec.(*Buffer).grow", "repro/internal/protocol.(*ReliableDatagram).SendIndexed"}, "codec"},
		{[]string{"repro/internal/sim/shard.(*Group).Run", "main.main"}, "sim"},
		{[]string{"repro/internal/lts.Bisimilar"}, "other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.bgsweep"}, "gc"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.mPark"}, "runtime"},
		{nil, "runtime"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%q) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestProfileBucketing parses a synthetic gzipped profile.proto with
// packed and unpacked repeated fields and an inlined frame.
func TestProfileBucketing(t *testing.T) {
	var pb protoBuf
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"runtime.mallocgc", "repro/internal/codec.encode", "repro/internal/sim.(*Kernel).Run",
		"runtime.gcBgMarkWorker", "repro/internal/network.(*Network).Send"}
	// Functions 1..5 name strings 5..9.
	for id := uint64(1); id <= 5; id++ {
		var f protoBuf
		f.varint(1, id)
		f.varint(2, id+4)
		pb.bytes(5, f.b)
	}
	// Location 1: mallocgc inlined into codec.encode (innermost first).
	// Location 2: sim kernel. Location 3: GC worker. Location 4: network.
	locFns := map[uint64][]uint64{1: {1, 2}, 2: {3}, 3: {4}, 4: {5}}
	for id := uint64(1); id <= 4; id++ {
		var l protoBuf
		l.varint(1, id)
		for _, fn := range locFns[id] {
			var line protoBuf
			line.varint(1, fn)
			l.bytes(4, line.b)
		}
		pb.bytes(4, l.b)
	}
	sample := func(locs []uint64, nanos uint64, packed bool) {
		var s protoBuf
		if packed {
			s.packed(1, locs)
			s.packed(2, []uint64{1, nanos})
		} else {
			for _, l := range locs {
				s.varint(1, l)
			}
			s.varint(2, 1)
			s.varint(2, nanos)
		}
		pb.bytes(2, s.b)
	}
	sample([]uint64{1, 2}, 30, true) // codec (inlined frame first)
	sample([]uint64{2}, 50, false)   // sim
	sample([]uint64{3}, 15, true)    // gc
	sample([]uint64{4, 2}, 5, false) // network, called from sim
	for _, s := range strs {
		pb.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(pb.b)
	zw.Close()

	split := cpuSplit{}
	if err := split.addProfile(gz.Bytes()); err != nil {
		t.Fatal(err)
	}
	want := cpuSplit{"codec": 30, "sim": 50, "gc": 15, "network": 5}
	if !reflect.DeepEqual(split, want) {
		t.Fatalf("split %v, want %v", split, want)
	}
	if split.total() != 100 {
		t.Fatalf("total %d, want 100", split.total())
	}
}

// protoBuf is a minimal protobuf encoder for synthetic profiles.
type protoBuf struct{ b []byte }

func (p *protoBuf) varint(field int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *protoBuf) bytes(field int, b []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *protoBuf) packed(field int, vs []uint64) {
	var inner []byte
	for _, v := range vs {
		inner = binary.AppendUvarint(inner, v)
	}
	p.bytes(field, inner)
}

// TestWrapLowerInterfaces checks that the lower-service decorator exposes
// exactly the optional extensions of the service it wraps.
func TestWrapLowerInterfaces(t *testing.T) {
	k := sim.NewKernel(sim.WithSeed(1))
	udp := protocol.NewUnreliableDatagram(network.New(k))
	rdp := protocol.NewReliableDatagram(k, udp, protocol.ReliableDatagramConfig{})
	for _, inner := range []protocol.LowerService{udp, rdp} {
		got := wrapLower(inner, newTracer())
		for name, has := range map[string]func(protocol.LowerService) bool{
			"IndexedLower":        func(l protocol.LowerService) bool { _, ok := l.(protocol.IndexedLower); return ok },
			"MultiSender":         func(l protocol.LowerService) bool { _, ok := l.(protocol.MultiSender); return ok },
			"IncarnationProvider": func(l protocol.LowerService) bool { _, ok := l.(protocol.IncarnationProvider); return ok },
		} {
			if has(got) != has(inner) {
				t.Errorf("%s: wrapped %s = %v, want %v", inner.Name(), name, has(got), has(inner))
			}
		}
	}
}

func TestConfigFromIDRoundTrip(t *testing.T) {
	for _, w := range workloads(smokeDiv) {
		if w.fan != nil {
			continue
		}
		for _, sc := range w.band() {
			if _, err := configFromID(sc.ID); err != nil {
				t.Error(err)
			}
		}
	}
	if _, err := configFromID("mw-callback/subs=3/res=2/cycles=5/loss=0/profile=x"); err == nil {
		t.Error("unsupported parameter accepted")
	}
}
