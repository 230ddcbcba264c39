package svc

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/middleware"
)

// sinkKind selects the wire pattern behind a Sink.
type sinkKind int

const (
	sinkOneway sinkKind = iota + 1
	sinkQueue
	sinkTopic
)

// Sink is a typed send-only service port over one of the asynchronous
// interaction patterns: directed oneway messaging to a target object,
// store-and-forward queueing, or topic publication. Sends are
// fire-and-forget; queue and topic sends are marshalled once at the
// platform and fan out over the dense delivery plane (SendMultiIndexed
// underneath for topics).
type Sink[T any] struct {
	b    *Binding
	kind sinkKind
	cfg  portConfig

	// oneway:
	target  middleware.ObjRef
	op      string
	encArgs func([]byte, T) ([]byte, error)
	// queue / topic:
	name   string
	encMsg func(T) codec.Message
}

// NewOnewaySink creates a typed fire-and-forget port to an object's
// operation (the oneway message-passing pattern). enc follows the
// NewPort request contract: it appends one encoded argument record.
func NewOnewaySink[T any](b *Binding, target middleware.ObjRef, op string,
	enc func([]byte, T) ([]byte, error), opts ...PortOption) (*Sink[T], error) {
	if err := b.supports(middleware.PatternOneway); err != nil {
		return nil, err
	}
	if enc == nil {
		return nil, fmt.Errorf("svc: oneway sink %s.%s: nil encoder", target, op)
	}
	cfg, err := b.applyOptions(op, opts)
	if err != nil {
		return nil, err
	}
	return &Sink[T]{b: b, kind: sinkOneway, cfg: cfg, target: target, op: op, encArgs: enc}, nil
}

// NewQueueSink creates a typed producer port for a declared queue (the
// point-to-point MOM pattern: each sent value reaches exactly one
// consumer).
func NewQueueSink[T any](b *Binding, queue string,
	enc func(T) codec.Message, opts ...PortOption) (*Sink[T], error) {
	if err := b.supports(middleware.PatternQueue); err != nil {
		return nil, err
	}
	if enc == nil {
		return nil, fmt.Errorf("svc: queue sink %q: nil encoder", queue)
	}
	cfg, err := b.applyOptions(queue, opts)
	if err != nil {
		return nil, err
	}
	return &Sink[T]{b: b, kind: sinkQueue, cfg: cfg, name: queue, encMsg: enc}, nil
}

// NewTopicSink creates a typed publisher port for a topic (the event
// source half of the pub/sub pattern).
func NewTopicSink[T any](b *Binding, topic string,
	enc func(T) codec.Message, opts ...PortOption) (*Sink[T], error) {
	if err := b.supports(middleware.PatternPubSub); err != nil {
		return nil, err
	}
	if enc == nil {
		return nil, fmt.Errorf("svc: topic sink %q: nil encoder", topic)
	}
	cfg, err := b.applyOptions(topic, opts)
	if err != nil {
		return nil, err
	}
	return &Sink[T]{b: b, kind: sinkTopic, cfg: cfg, name: topic, encMsg: enc}, nil
}

// Send transmits one typed value from the given node. A monitor veto
// (ErrVetoed) aborts the send; other errors follow the port taxonomy.
func (s *Sink[T]) Send(from middleware.Addr, v T) error {
	switch s.kind {
	case sinkOneway:
		return s.sendOneway(from, v)
	case sinkQueue:
		m := s.encMsg(v)
		if err := s.cfg.observeOut(s.b.kern, m.Fields); err != nil {
			return err
		}
		return wrapErr(s.b.plat.QueuePut(from, s.name, m))
	case sinkTopic:
		m := s.encMsg(v)
		if err := s.cfg.observeOut(s.b.kern, m.Fields); err != nil {
			return err
		}
		return wrapErr(s.b.plat.Publish(from, s.name, m))
	default:
		return fmt.Errorf("svc: sink kind %d not wired", s.kind)
	}
}

// sendOneway encodes the argument record into a pooled buffer and hands
// it to the platform, which copies it onto the wire.
func (s *Sink[T]) sendOneway(from middleware.Addr, v T) error {
	buf := codec.GetBuffer()
	defer buf.Release()
	args, err := s.encArgs(buf.B[:0], v)
	if err != nil {
		return fmt.Errorf("svc: oneway sink %s.%s: marshal: %w", s.target, s.op, err)
	}
	buf.B = args
	if s.cfg.monitor != nil {
		if err := s.cfg.observeOut(s.b.kern, paramsOf(args)); err != nil {
			return err
		}
	}
	return wrapErr(s.b.plat.InvokeOneway(from, s.target, s.op, args))
}

// Source is a typed receive endpoint: a queue consumption or topic
// subscription whose deliveries are decoded and handed to the
// application handler. Decode failures are counted and dropped (wire
// corruption below the service boundary is not the application's
// concern); an attached monitor observes each decoded delivery inline
// before the handler.
type Source[T any] struct {
	b        *Binding
	name     string
	node     middleware.Addr
	cfg      portConfig
	received uint64
	dropped  uint64
}

// Received reports how many deliveries reached the handler.
func (s *Source[T]) Received() uint64 { return s.received }

// Dropped reports how many deliveries failed to decode.
func (s *Source[T]) Dropped() uint64 { return s.dropped }

// NewQueueSource subscribes node as a consumer of a declared queue,
// delivering decoded values to fn in arrival order.
func NewQueueSource[T any](b *Binding, queue string, node middleware.Addr,
	dec func(codec.Message) (T, error), fn func(T), opts ...PortOption) (*Source[T], error) {
	if err := b.supports(middleware.PatternQueue); err != nil {
		return nil, err
	}
	if dec == nil || fn == nil {
		return nil, fmt.Errorf("svc: queue source %q: nil decoder or handler", queue)
	}
	cfg, err := b.applyOptions(queue, opts)
	if err != nil {
		return nil, err
	}
	src := &Source[T]{b: b, name: queue, node: node, cfg: cfg}
	if err := b.plat.QueueSubscribe(queue, node, func(m codec.Message) {
		v, derr := dec(m)
		if derr != nil {
			src.dropped++
			return
		}
		src.received++
		src.cfg.observeIn(b.kern, m.Fields)
		fn(v)
	}); err != nil {
		return nil, wrapErr(err)
	}
	return src, nil
}

// NewTopicSource subscribes node to a topic on the zero-copy plane: the
// decoder reads the event through a codec.MsgView aliasing the
// transport's pooled delivery buffer (valid only until it returns), so a
// steady-state delivery costs no allocations beyond what the decoded T
// itself retains.
func NewTopicSource[T any](b *Binding, topic string, node middleware.Addr,
	dec func(codec.MsgView) (T, error), fn func(T), opts ...PortOption) (*Source[T], error) {
	if err := b.supports(middleware.PatternPubSub); err != nil {
		return nil, err
	}
	if dec == nil || fn == nil {
		return nil, fmt.Errorf("svc: topic source %q: nil decoder or handler", topic)
	}
	cfg, err := b.applyOptions(topic, opts)
	if err != nil {
		return nil, err
	}
	src := &Source[T]{b: b, name: topic, node: node, cfg: cfg}
	if err := b.plat.SubscribeTopicView(topic, node, func(v codec.MsgView) {
		val, derr := dec(v)
		if derr != nil {
			src.dropped++
			return
		}
		src.received++
		if src.cfg.monitor != nil {
			// Materialize the params only when a monitor is watching.
			fields, _ := v.Record("fields")
			src.cfg.observeIn(b.kern, fields)
		}
		fn(val)
	}); err != nil {
		return nil, wrapErr(err)
	}
	return src, nil
}

// NewTopicSourceMessages subscribes node to a topic on the materializing
// plane: deliveries arrive as retainable codec.Message values. Use
// NewTopicSource (the view plane) unless the handler must keep the
// message.
func NewTopicSourceMessages[T any](b *Binding, topic string, node middleware.Addr,
	dec func(codec.Message) (T, error), fn func(T), opts ...PortOption) (*Source[T], error) {
	if err := b.supports(middleware.PatternPubSub); err != nil {
		return nil, err
	}
	if dec == nil || fn == nil {
		return nil, fmt.Errorf("svc: topic source %q: nil decoder or handler", topic)
	}
	cfg, err := b.applyOptions(topic, opts)
	if err != nil {
		return nil, err
	}
	src := &Source[T]{b: b, name: topic, node: node, cfg: cfg}
	if err := b.plat.SubscribeTopic(topic, node, func(m codec.Message) {
		v, derr := dec(m)
		if derr != nil {
			src.dropped++
			return
		}
		src.received++
		src.cfg.observeIn(b.kern, m.Fields)
		fn(v)
	}); err != nil {
		return nil, wrapErr(err)
	}
	return src, nil
}
