package svc

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/middleware"
)

// Sink is a typed send-only service port over one of the asynchronous
// interaction patterns: directed oneway messaging to a target object,
// store-and-forward queueing, or topic publication. Sends are
// fire-and-forget; queue and topic sends are marshalled once at the
// platform and fan out over the dense delivery plane (SendMultiIndexed
// underneath for topics). Every sink carries its payload as an encoded
// record, like a Port's request.
type Sink[T any] struct {
	b       *Binding
	pattern middleware.Pattern
	dest    string // target object, queue or topic
	name    string // oneway operation, queue message or topic event name
	enc     func([]byte, T) ([]byte, error)
}

// bind checks the sink's pattern and encoder.
func (s *Sink[T]) bind() (*Sink[T], error) {
	if err := s.b.supports(s.pattern); err != nil {
		return nil, err
	}
	if s.enc == nil {
		return nil, fmt.Errorf("svc: %s sink %q: nil encoder", s.pattern, s.dest)
	}
	return s, nil
}

// NewOnewaySink creates a typed fire-and-forget port to an object's
// operation (the oneway message-passing pattern). enc follows the
// NewPort request contract: it appends one encoded argument record.
func NewOnewaySink[T any](b *Binding, target middleware.ObjRef, op string,
	enc func([]byte, T) ([]byte, error)) (*Sink[T], error) {
	s := &Sink[T]{b: b, pattern: middleware.PatternOneway, dest: string(target), name: op, enc: enc}
	return s.bind()
}

// NewQueueSink creates a typed producer port for a declared queue (the
// point-to-point MOM pattern: each sent value reaches exactly one
// consumer). Each send is a message called name whose field record enc
// appends, under the NewPort request contract.
func NewQueueSink[T any](b *Binding, queue, name string,
	enc func([]byte, T) ([]byte, error)) (*Sink[T], error) {
	s := &Sink[T]{b: b, pattern: middleware.PatternQueue, dest: queue, name: name, enc: enc}
	return s.bind()
}

// NewTopicSink creates a typed publisher port for a topic (the event
// source half of the pub/sub pattern): each send publishes an event
// called name whose field record enc appends.
func NewTopicSink[T any](b *Binding, topic, name string,
	enc func([]byte, T) ([]byte, error)) (*Sink[T], error) {
	s := &Sink[T]{b: b, pattern: middleware.PatternPubSub, dest: topic, name: name, enc: enc}
	return s.bind()
}

// Send transmits one typed value from the given node: the payload record
// is encoded into a pooled buffer and handed to the platform, which
// copies it onto the wire. Errors follow the port taxonomy.
func (s *Sink[T]) Send(from middleware.Addr, v T) error {
	buf := s.b.plat.Time().Buffers().Get()
	defer buf.Release()
	rec, err := s.enc(buf.B[:0], v)
	if err != nil {
		return fmt.Errorf("svc: %s sink %s.%s: marshal: %w", s.pattern, s.dest, s.name, err)
	}
	buf.B = rec
	switch s.pattern {
	case middleware.PatternQueue:
		return wrapErr(s.b.plat.QueuePut(from, s.dest, s.name, rec))
	case middleware.PatternPubSub:
		return wrapErr(s.b.plat.PublishRecord(from, s.dest, s.name, rec))
	}
	return wrapErr(s.b.plat.InvokeOneway(from, middleware.ObjRef(s.dest), s.name, rec))
}

// Source is a typed receive endpoint: a queue consumption or topic
// subscription whose deliveries' field records are decoded and handed
// to the application handler. Decode failures are counted and dropped (wire
// corruption below the service boundary is not the application's
// concern).
type Source[T any] struct {
	received uint64
	dropped  uint64
}

// Received reports how many deliveries reached the handler.
func (s *Source[T]) Received() uint64 { return s.received }

// Dropped reports how many deliveries failed to decode.
func (s *Source[T]) Dropped() uint64 { return s.dropped }

// schemaEnvelope reads the field record of a queue or topic delivery's
// envelope (mw.deliver, mw.event), the one field a source needs.
var (
	schemaEnvelope = codec.CompileRecord("fields")
	slotFields     = schemaEnvelope.Slot("fields")
)

// deliver hands the field record of envelope v to dec and the decoded
// value to fn. A delivery whose fields are not a record, or that dec
// rejects, counts as dropped.
func (s *Source[T]) deliver(v *codec.MsgView, dec func(codec.MsgView) (T, error), fn func(T)) {
	var sl codec.Slots
	schemaEnvelope.Resolve(v, &sl)
	fields, ok := sl.RecordAt(slotFields)
	if !ok {
		s.dropped++
		return
	}
	val, err := dec(fields)
	if err != nil {
		s.dropped++
		return
	}
	s.received++
	fn(val)
}

// NewQueueSource subscribes node as a consumer of a declared queue,
// delivering decoded values to fn in arrival order. dec decodes the
// message's field record from a view of the delivery buffer (the
// HandleOp contract: valid only while dec runs).
func NewQueueSource[T any](b *Binding, queue string, node middleware.Addr,
	dec func(codec.MsgView) (T, error), fn func(T)) (*Source[T], error) {
	if err := b.supports(middleware.PatternQueue); err != nil {
		return nil, err
	}
	if dec == nil || fn == nil {
		return nil, fmt.Errorf("svc: queue source %q: nil decoder or handler", queue)
	}
	src := &Source[T]{}
	if err := b.plat.QueueSubscribe(queue, node, func(v codec.MsgView) {
		src.deliver(&v, dec, fn)
	}); err != nil {
		return nil, wrapErr(err)
	}
	return src, nil
}

// NewTopicSource subscribes node to a topic on the zero-copy plane: dec
// decodes the event's field record from a view aliasing the transport's
// pooled delivery buffer (valid only until it returns), so a
// steady-state delivery costs no allocations beyond what the decoded T
// itself retains.
func NewTopicSource[T any](b *Binding, topic string, node middleware.Addr,
	dec func(codec.MsgView) (T, error), fn func(T)) (*Source[T], error) {
	if err := b.supports(middleware.PatternPubSub); err != nil {
		return nil, err
	}
	if dec == nil || fn == nil {
		return nil, fmt.Errorf("svc: topic source %q: nil decoder or handler", topic)
	}
	src := &Source[T]{}
	if err := b.plat.SubscribeTopicView(topic, node, func(v codec.MsgView) {
		src.deliver(&v, dec, fn)
	}); err != nil {
		return nil, wrapErr(err)
	}
	return src, nil
}
