package floorcontrol

import (
	"fmt"
	"time"

	"repro/internal/codec"
	"repro/internal/protocol"
)

// ProtoPolling is the asymmetric protocol solution of Figure 6(b),
// mirroring the polling-based middleware solution. PDUs:
//
//	is_available_req  (subid, resid)
//	is_available_resp (resid, available bool)
//	free              (subid, resid)
//
// The decisive difference from MWPolling, emphasized in §5: "the
// subscriber requests the resource and the service is responsible for
// 'polling'." The polling loop lives inside the subscriber *protocol
// entity* — behind the service boundary — so the user part executes a
// single request primitive and simply waits for granted. Same wire
// behaviour, different residence of the interaction functionality.
type ProtoPolling struct{}

var _ Solution = (*ProtoPolling)(nil)

// Name implements Solution.
func (*ProtoPolling) Name() string { return "proto-polling" }

// Paradigm implements Solution.
func (*ProtoPolling) Paradigm() Paradigm { return ParadigmProtocol }

// Style implements Solution.
func (*ProtoPolling) Style() Style { return StylePolling }

// Figure implements Solution.
func (*ProtoPolling) Figure() string { return "Fig 6(b)" }

// Scattering implements Solution: app parts 0; subscriber entity carries
// 4 handlers (request→poll loop, response handling, free, timer), the
// controller entity 2.
func (*ProtoPolling) Scattering(n int) Scattering {
	return Scattering{InteractionSystemOps: 4 + 2}
}

// Build implements Solution.
func (s *ProtoPolling) Build(env *Env) (map[string]AppPart, error) {
	return buildProtocolSolution(env, s.Name(), func(layer *protocol.Layer) error {
		dep := env.names()
		ctrl := &pollingCtrlEntity{q: newResourceQueue(dep)}
		if err := layer.AddEntity(ctrlNode, ctrl); err != nil {
			return fmt.Errorf("floorcontrol: add controller entity: %w", err)
		}
		for _, sub := range env.Subscribers {
			e := &pollingSubEntity{controller: ctrlNode, interval: env.PollInterval, names: dep}
			if err := layer.AddEntity(protocol.Addr(sub), e); err != nil {
				return fmt.Errorf("floorcontrol: add subscriber entity %q: %w", sub, err)
			}
		}
		return nil
	})
}

// pollingSubEntity polls the controller on the user's behalf.
type pollingSubEntity struct {
	controller protocol.Addr
	interval   time.Duration
	ctx        *protocol.Context
	names      *deployment
	params     paramBuf

	waiting waiters // resources being polled for
}

var _ protocol.Entity = (*pollingSubEntity)(nil)

// Init implements protocol.Entity.
func (e *pollingSubEntity) Init(ctx *protocol.Context) error {
	e.ctx = ctx
	return nil
}

// FromUser implements protocol.Entity.
func (e *pollingSubEntity) FromUser(primitive string, params []byte) error {
	_, res := e.names.resid(params)
	switch primitive {
	case PrimRequest:
		e.waiting.put(waiter{res: res})
		return e.probe(res)
	case PrimFree:
		return pduFree.Send(e.ctx, e.controller, ctrlArgs{Sub: string(e.ctx.Self()), Res: res})
	default:
		return fmt.Errorf("floorcontrol: unexpected primitive %q", primitive)
	}
}

func (e *pollingSubEntity) probe(res string) error {
	return pduAvailReq.Send(e.ctx, e.controller, ctrlArgs{Sub: string(e.ctx.Self()), Res: res})
}

// FromPeer implements protocol.Entity. Only the controller answers
// probes: a PDU from any other source is dropped.
func (e *pollingSubEntity) FromPeer(src protocol.Addr, pdu codec.MsgView) error {
	if src != e.controller {
		return fmt.Errorf("floorcontrol: PDU %q from %s, not the controller", pdu.Name(), src)
	}
	if !pdu.NameIs(pduAvailResp.Name()) {
		return fmt.Errorf("floorcontrol: unexpected PDU %q at polling subscriber entity", pdu.Name())
	}
	r, _ := e.names.decAvailReply(pdu)
	res, avail := r.Res, r.Available
	i := e.waiting.find(res)
	if i < 0 {
		return nil // stale response
	}
	if avail {
		e.waiting.remove(i)
		e.ctx.DeliverToUser(PrimGranted, e.params.of(res))
		return nil
	}
	e.ctx.Schedule(e.interval, func() {
		if e.waiting.find(res) >= 0 {
			_ = e.probe(res) //nolint:errcheck // probe failure retried on next interval
		}
	})
	return nil
}

// pollingCtrlEntity answers probes test-and-set, mirroring the middleware
// polling controller.
type pollingCtrlEntity struct {
	ctx *protocol.Context

	q *resourceQueue
}

var _ protocol.Entity = (*pollingCtrlEntity)(nil)

// Init implements protocol.Entity.
func (e *pollingCtrlEntity) Init(ctx *protocol.Context) error {
	e.ctx = ctx
	return nil
}

// FromUser implements protocol.Entity.
func (e *pollingCtrlEntity) FromUser(primitive string, _ []byte) error {
	return fmt.Errorf("floorcontrol: controller entity has no service user (got %q)", primitive)
}

// FromPeer implements protocol.Entity. A subscriber speaks for itself
// only: a PDU whose subid is not its source is dropped.
func (e *pollingCtrlEntity) FromPeer(src protocol.Addr, pdu codec.MsgView) error {
	a, _ := e.q.d.decCtrlArgs(pdu)
	if err := a.unknown(); err != nil {
		return err
	}
	if string(src) != a.Sub {
		return fmt.Errorf("floorcontrol: PDU %q for %q from %s", pdu.Name(), a.Sub, src)
	}
	switch {
	case pdu.NameIs(pduAvailReq.Name()):
		got := e.q.tryAcquire(a.sub, a.res)
		return pduAvailResp.Send(e.ctx, protocol.Addr(a.Sub), availReply{Res: a.Res, Available: got})
	case pdu.NameIs(pduFree.Name()):
		_, _, err := e.q.release(a.sub, a.res)
		return err
	default:
		return fmt.Errorf("floorcontrol: unexpected PDU %q at polling controller from %s", pdu.Name(), src)
	}
}
