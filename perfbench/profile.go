package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuLayers are the buckets of the per-layer CPU split, in report order.
// A sample goes to the layer of its innermost repro/internal/<layer>
// frame; layers without a bucket of their own go to "other". Samples
// with no such frame go to "gc" (background mark, sweep and scavenge) or
// "runtime".
var cpuLayers = []string{
	"sim", "network", "protocol", "middleware", "svc", "codec", "core",
	"floorcontrol", "mda", "fanout", "fault", "metrics", "runner",
	"other", "gc", "runtime",
}

const internalPrefix = "repro/internal/"

// layerOf buckets one stack, given innermost frame first.
func layerOf(stack []string) string {
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, internalPrefix)
		if !ok {
			continue
		}
		if i := strings.IndexAny(rest, "/."); i >= 0 {
			rest = rest[:i]
		}
		for _, l := range cpuLayers {
			if l == rest {
				return l
			}
		}
		return "other"
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgsweep") ||
			strings.HasPrefix(fn, "runtime.bgscavenge") || strings.HasPrefix(fn, "runtime.markroot") {
			return "gc"
		}
	}
	return "runtime"
}

// cpuSplit is CPU time by layer, in nanoseconds.
type cpuSplit map[string]int64

// addProfile buckets every sample of a CPU profile as written by
// runtime/pprof (gzipped profile.proto). It needs no pprof labels and
// costs the profiled program nothing beyond the sampling itself.
func (c cpuSplit) addProfile(data []byte) error {
	p, err := parseProfile(data)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range p.locations[loc] {
				stack = append(stack, p.strings[p.functions[fid]])
			}
		}
		c[layerOf(stack)] += s.nanos
	}
	return nil
}

func (c cpuSplit) total() int64 {
	var n int64
	for _, v := range c {
		n += v
	}
	return n
}

// profile holds the parts of profile.proto the CPU split needs.
type profile struct {
	samples []profSample
	// locations maps a location id to its function ids, innermost
	// (inlined) first.
	locations map[uint64][]uint64
	// functions maps a function id to its name's string-table index.
	functions map[uint64]int64
	strings   []string
}

type profSample struct {
	locs  []uint64 // leaf first
	nanos int64
}

// Field numbers from github.com/google/pprof/proto/profile.proto.
const (
	fieldProfileSample   = 2
	fieldProfileLocation = 4
	fieldProfileFunction = 5
	fieldProfileStrings  = 6
	fieldSampleLocation  = 1
	fieldSampleValue     = 2
	fieldLocationID      = 1
	fieldLocationLine    = 4
	fieldLineFunction    = 1
	fieldFunctionID      = 1
	fieldFunctionName    = 2
)

func parseProfile(data []byte) (*profile, error) {
	if len(data) > 1 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case fieldProfileSample:
			var s profSample
			var values []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case fieldSampleLocation:
					s.locs = appendVarints(s.locs, v, b)
				case fieldSampleValue:
					values = appendVarints(values, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			// A CPU profile's sample values are [count, nanoseconds].
			if len(values) > 1 {
				s.nanos = int64(values[1])
			}
			p.samples = append(p.samples, s)
		case fieldProfileLocation:
			var id uint64
			var fns []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case fieldLocationID:
					id = v
				case fieldLocationLine:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == fieldLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locations[id] = fns
		case fieldProfileFunction:
			var id uint64
			var name int64
			if err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case fieldFunctionID:
					id = v
				case fieldFunctionName:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.functions[id] = name
		case fieldProfileStrings:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, name := range p.functions {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, fmt.Errorf("profile: function %d names string %d of %d", id, name, len(p.strings))
		}
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(data []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		num := int(key >> 3)
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(data); n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errTruncated
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errTruncated
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", key&7)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field that arrived either as
// one unpacked varint (b == nil) or as a packed run.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
