package protocol

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/codec"
	"repro/internal/sim"
)

// Stream provides "reliable transfer of a sequence of octets" between
// endpoint pairs — exactly the lower-level service the paper's §4.2
// assumes ("which is the data transfer service used internally by
// middleware platforms"). It is built as a further layer on the reliable
// datagram service: writes are chunked, chunks travel reliably and in
// order, and receivers observe a byte stream whose chunk boundaries are
// NOT meaningful (stream semantics).
//
// To carry discrete PDUs over the stream, wrap it in a Framing adapter,
// which restores message boundaries with length prefixes — turning the
// stream back into a LowerService and closing the layering loop:
//
//	unreliable datagrams → reliable datagrams → octet stream → framed PDUs
type Stream struct {
	lower LowerService

	mu        sync.Mutex
	receivers map[Addr]StreamReceiver
	chunkSize int
}

// StreamReceiver consumes stream octets; successive calls deliver
// successive segments of the byte sequence from src.
type StreamReceiver func(src Addr, segment []byte)

// flowKey identifies a directed endpoint pair in the stream/framing
// reassembly tables.
type flowKey struct{ src, dst Addr }

// StreamConfig tunes the stream layer.
type StreamConfig struct {
	// ChunkSize bounds the octets carried per underlying datagram.
	// Default 512.
	ChunkSize int
}

// NewStream layers octet-stream semantics over a reliable, ordered lower
// service. The lower service MUST deliver reliably and in order (use
// ReliableDatagram); the stream adds chunking only.
func NewStream(lower LowerService, cfg StreamConfig) *Stream {
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = 512
	}
	return &Stream{
		lower:     lower,
		receivers: make(map[Addr]StreamReceiver),
		chunkSize: cfg.ChunkSize,
	}
}

// Name identifies the service.
func (s *Stream) Name() string { return "octet-stream/" + s.lower.Name() }

// AttachStream registers the octet receiver at addr.
func (s *Stream) AttachStream(addr Addr, r StreamReceiver) error {
	if r == nil {
		return fmt.Errorf("protocol: nil stream receiver for %q", addr)
	}
	s.mu.Lock()
	s.receivers[addr] = r
	s.mu.Unlock()
	return s.lower.Attach(addr, func(src Addr, chunk []byte) {
		s.mu.Lock()
		recv := s.receivers[addr]
		s.mu.Unlock()
		if recv != nil {
			recv(src, chunk)
		}
	})
}

// Write appends data to the octet sequence from src to dst. The data is
// chunked; receivers must not rely on segment boundaries.
func (s *Stream) Write(src, dst Addr, data []byte) error {
	for len(data) > 0 {
		n := len(data)
		if n > s.chunkSize {
			n = s.chunkSize
		}
		if err := s.lower.Send(src, dst, data[:n]); err != nil {
			return fmt.Errorf("protocol: stream write %s→%s: %w", src, dst, err)
		}
		data = data[n:]
	}
	return nil
}

// Framing restores discrete message boundaries on top of a Stream using
// 4-byte big-endian length prefixes, exposing a LowerService again so any
// PDU-based layer (including the middleware platform) can run over the
// octet stream.
type Framing struct {
	stream *Stream

	mu        sync.Mutex
	receivers map[Addr]Receiver
	// buffers holds partial frames per (receiver, sender) pair.
	buffers map[flowKey][]byte
	// maxFrame bounds accepted frame sizes (decoding safety).
	maxFrame uint32
}

var _ LowerService = (*Framing)(nil)

// NewFraming wraps a stream in length-prefix framing. maxFrame bounds the
// accepted frame size; zero means 16 MiB.
func NewFraming(stream *Stream, maxFrame uint32) *Framing {
	if maxFrame == 0 {
		maxFrame = 16 << 20
	}
	return &Framing{
		stream:    stream,
		receivers: make(map[Addr]Receiver),
		buffers:   make(map[flowKey][]byte),
		maxFrame:  maxFrame,
	}
}

// Name implements LowerService.
func (f *Framing) Name() string { return "framed/" + f.stream.Name() }

// Attach implements LowerService.
func (f *Framing) Attach(addr Addr, r Receiver) error {
	if r == nil {
		return fmt.Errorf("protocol: nil receiver for %q", addr)
	}
	f.mu.Lock()
	f.receivers[addr] = r
	f.mu.Unlock()
	return f.stream.AttachStream(addr, func(src Addr, segment []byte) {
		f.onSegment(src, addr, segment)
	})
}

// Send implements LowerService: the PDU travels as one length-prefixed
// frame on the octet stream. The frame is assembled in a pooled scratch
// buffer — Write hands chunks to a copying lower service synchronously.
func (f *Framing) Send(src, dst Addr, pdu []byte) error {
	if uint32(len(pdu)) > f.maxFrame {
		return fmt.Errorf("protocol: frame of %d bytes exceeds limit %d", len(pdu), f.maxFrame)
	}
	fb := codec.GetBuffer()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(pdu)))
	fb.B = append(append(fb.B[:0], hdr[:]...), pdu...)
	err := f.stream.Write(src, dst, fb.B)
	fb.Release()
	return err
}

// onSegment accumulates stream octets and emits completed frames. Frames
// are carved into pooled buffers that are recycled as soon as the
// receiver returns (Receiver aliasing contract).
func (f *Framing) onSegment(src, dst Addr, segment []byte) {
	key := flowKey{src, dst}
	f.mu.Lock()
	buf := append(f.buffers[key], segment...)
	var frames []*codec.Buffer
	for {
		if len(buf) < 4 {
			break
		}
		size := binary.BigEndian.Uint32(buf)
		if size > f.maxFrame {
			// Corrupt length: drop the flow's buffer; the reliable layers
			// below make this unreachable in practice.
			buf = nil
			break
		}
		if uint32(len(buf)-4) < size {
			break
		}
		frame := codec.GetBuffer()
		frame.B = append(frame.B[:0], buf[4:4+size]...)
		frames = append(frames, frame)
		buf = buf[4+size:]
	}
	f.buffers[key] = buf
	recv := f.receivers[dst]
	f.mu.Unlock()
	for _, frame := range frames {
		if recv != nil {
			recv(src, frame.B)
		}
		frame.Release()
	}
}

// NewStreamTransport assembles the full canonical stack of the paper's
// §4.2 in one call: unreliable datagrams (net) → go-back-N reliable
// datagrams → octet stream → framed PDUs, returning a LowerService ready
// for application protocols or the middleware platform.
func NewStreamTransport(kern *sim.Kernel, base LowerService, rcfg ReliableDatagramConfig, scfg StreamConfig) *Framing {
	reliable := NewReliableDatagram(kern, base, rcfg)
	return NewFraming(NewStream(reliable, scfg), 0)
}
