package protocol

import (
	"encoding/binary"
	"fmt"

	"repro/internal/codec"
	"repro/internal/sim"
)

// Stream provides "reliable transfer of a sequence of octets" between
// endpoint pairs — exactly the lower-level service the paper's §4.2
// assumes ("which is the data transfer service used internally by
// middleware platforms"). It is built as a further layer on the reliable
// datagram service: writes are chunked, chunks travel reliably and in
// order, and receivers observe a byte stream whose chunk boundaries are
// NOT meaningful (stream semantics). Endpoints keep the ids of the
// service below.
//
// To carry discrete PDUs over the stream, wrap it in a Framing adapter,
// which restores message boundaries with length prefixes — turning the
// stream back into a LowerService and closing the layering loop:
//
//	unreliable datagrams → reliable datagrams → octet stream → framed PDUs
type Stream struct {
	lower     LowerService
	chunkSize int
}

// StreamReceiver consumes stream octets; successive calls deliver
// successive segments of the byte sequence from the endpoint src.
type StreamReceiver func(src int32, segment []byte)

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
	return &Stream{lower: lower, chunkSize: cfg.ChunkSize}
}

// Name identifies the service.
func (s *Stream) Name() string { return "octet-stream/" + s.lower.Name() }

// AttachStream registers the octet receiver at addr and returns addr's
// endpoint id.
func (s *Stream) AttachStream(addr Addr, r StreamReceiver) (int32, error) {
	if r == nil {
		return -1, fmt.Errorf("protocol: nil stream receiver for %q", addr)
	}
	return s.lower.AttachIndexed(addr, IndexedReceiver(r))
}

// EndpointID resolves an attached address to its endpoint id.
func (s *Stream) EndpointID(addr Addr) (int32, bool) { return s.lower.EndpointID(addr) }

// EndpointAddr resolves an endpoint id to its address.
func (s *Stream) EndpointAddr(id int32) Addr { return s.lower.EndpointAddr(id) }

// Write appends data to the octet sequence from src to dst. The data is
// chunked; receivers must not rely on segment boundaries.
func (s *Stream) Write(src, dst int32, data []byte) error {
	for len(data) > 0 {
		n := min(len(data), s.chunkSize)
		if err := s.lower.SendIndexed(src, dst, data[:n]); err != nil {
			return fmt.Errorf("protocol: stream write %s→%s: %w", s.EndpointAddr(src), s.EndpointAddr(dst), err)
		}
		data = data[n:]
	}
	return nil
}

// Framing restores discrete message boundaries on top of a Stream using
// 4-byte big-endian length prefixes, exposing a LowerService again so any
// PDU-based layer (including the middleware platform) can run over the
// octet stream. Its endpoint ids are the stream's.
type Framing struct {
	stream *Stream
	bufs   *codec.BufferList // the kernel's, for frames

	receivers []IndexedReceiver // endpoint id → receiver
	// buffers holds partial frames per (sender, receiver) pair.
	buffers map[flowKey][]byte
	// maxFrame bounds accepted frame sizes (decoding safety).
	maxFrame uint32
}

// flowKey identifies a directed endpoint pair in the reassembly table.
type flowKey struct{ src, dst int32 }

var _ LowerService = (*Framing)(nil)

// NewFraming wraps a stream in length-prefix framing; frames are
// assembled and carved in buffers from kern's list. maxFrame bounds the
// accepted frame size; zero means 16 MiB.
func NewFraming(kern *sim.Kernel, stream *Stream, maxFrame uint32) *Framing {
	if maxFrame == 0 {
		maxFrame = 16 << 20
	}
	return &Framing{stream: stream, bufs: kern.Buffers(), buffers: make(map[flowKey][]byte), maxFrame: maxFrame}
}

// Name implements LowerService.
func (f *Framing) Name() string { return "framed/" + f.stream.Name() }

// Attach implements LowerService.
func (f *Framing) Attach(addr Addr, r Receiver) error { return attachByName(f, addr, r) }

// AttachIndexed implements LowerService.
func (f *Framing) AttachIndexed(addr Addr, r IndexedReceiver) (int32, error) {
	if r == nil {
		return -1, fmt.Errorf("protocol: nil receiver for %q", addr)
	}
	var id int32
	id, err := f.stream.AttachStream(addr, func(src int32, segment []byte) { f.onSegment(src, id, segment) })
	if err != nil {
		return -1, err
	}
	for int(id) >= len(f.receivers) {
		f.receivers = append(f.receivers, nil)
	}
	f.receivers[id] = r
	return id, nil
}

// EndpointID implements LowerService.
func (f *Framing) EndpointID(addr Addr) (int32, bool) { return f.stream.EndpointID(addr) }

// EndpointAddr implements LowerService.
func (f *Framing) EndpointAddr(id int32) Addr { return f.stream.EndpointAddr(id) }

// Send implements LowerService.
func (f *Framing) Send(src, dst Addr, pdu []byte) error { return sendByName(f, src, dst, pdu) }

// SendIndexed implements LowerService: the PDU travels as one
// length-prefixed frame on the octet stream. The frame is assembled in a
// pooled scratch buffer — Write hands chunks to a copying lower service
// synchronously.
func (f *Framing) SendIndexed(src, dst int32, pdu []byte) error {
	if uint32(len(pdu)) > f.maxFrame {
		return fmt.Errorf("protocol: frame of %d bytes exceeds limit %d", len(pdu), f.maxFrame)
	}
	fb := f.bufs.Get()
	fb.B = binary.BigEndian.AppendUint32(fb.B[:0], uint32(len(pdu)))
	fb.B = append(fb.B, pdu...)
	err := f.stream.Write(src, dst, fb.B)
	fb.Release()
	return err
}

// SendMultiIndexed implements LowerService as a SendIndexed loop,
// returning the first error.
func (f *Framing) SendMultiIndexed(src int32, dsts []int32, pdu []byte) error {
	var firstErr error
	for _, dst := range dsts {
		if err := f.SendIndexed(src, dst, pdu); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// onSegment accumulates stream octets and emits completed frames. Frames
// are carved into pooled buffers that are recycled as soon as the
// receiver returns (Receiver aliasing contract).
//
// Frames are delivered as they are carved: a receiver cannot re-enter
// onSegment, because every lower service delivers in a later kernel
// event, never inside the sender's call.
func (f *Framing) onSegment(src, dst int32, segment []byte) {
	key := flowKey{src, dst}
	buf := append(f.buffers[key], segment...)
	recv := f.receivers[dst]
	for len(buf) >= 4 {
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
		frame := f.bufs.Get()
		frame.B = append(frame.B[:0], buf[4:4+size]...)
		recv(src, frame.B)
		frame.Release()
		buf = buf[4+size:]
	}
	f.buffers[key] = buf
}

// NewStreamTransport assembles the full canonical stack of the paper's
// §4.2 in one call: unreliable datagrams (net) → go-back-N reliable
// datagrams → octet stream → framed PDUs, returning a LowerService ready
// for application protocols or the middleware platform.
func NewStreamTransport(kern *sim.Kernel, base LowerService, rcfg ReliableDatagramConfig, scfg StreamConfig) *Framing {
	reliable := NewReliableDatagram(kern, base, rcfg)
	return NewFraming(kern, NewStream(reliable, scfg), 0)
}
