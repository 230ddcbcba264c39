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
		ctrl := &pollingCtrlEntity{q: newResourceQueue(env.Resources)}
		if err := layer.AddEntity(ctrlNode, ctrl); err != nil {
			return fmt.Errorf("floorcontrol: add controller entity: %w", err)
		}
		for _, sub := range env.Subscribers {
			e := &pollingSubEntity{controller: ctrlNode, interval: env.PollInterval, names: env.names}
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
	names      resNames
	params     paramBuf

	waiting map[string]bool // resources being polled for
}

var _ protocol.Entity = (*pollingSubEntity)(nil)

// Init implements protocol.Entity.
func (e *pollingSubEntity) Init(ctx *protocol.Context) error {
	e.ctx = ctx
	e.waiting = make(map[string]bool)
	return nil
}

// FromUser implements protocol.Entity.
func (e *pollingSubEntity) FromUser(primitive string, params []byte) error {
	res := e.names.resid(params)
	switch primitive {
	case PrimRequest:
		e.waiting[res] = true
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

// FromPeer implements protocol.Entity.
func (e *pollingSubEntity) FromPeer(_ protocol.Addr, pdu codec.MsgView) error {
	if !pdu.NameIs(pduAvailResp.Name()) {
		return fmt.Errorf("floorcontrol: unexpected PDU %q at polling subscriber entity", pdu.Name())
	}
	r, _ := decAvailReply(pdu)
	res, avail := r.Res, r.Available
	waiting := e.waiting[res]
	if avail && waiting {
		delete(e.waiting, res)
	}
	if !waiting {
		return nil // stale response
	}
	if avail {
		e.ctx.DeliverToUser(PrimGranted, e.params.of(res))
		return nil
	}
	e.ctx.Schedule(e.interval, func() {
		still := e.waiting[res]
		if still {
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

// FromPeer implements protocol.Entity.
func (e *pollingCtrlEntity) FromPeer(src protocol.Addr, pdu codec.MsgView) error {
	a, _ := decCtrlArgs(pdu)
	sub, res := a.Sub, a.Res
	switch {
	case pdu.NameIs(pduAvailReq.Name()):
		if !e.q.known(res) {
			return fmt.Errorf("floorcontrol: probe for unknown resource %q", res)
		}
		got := e.q.tryAcquire(sub, res)
		return pduAvailResp.Send(e.ctx, protocol.Addr(sub), availReply{Res: res, Available: got})
	case pdu.NameIs(pduFree.Name()):
		_, _, err := e.q.release(sub, res)
		return err
	default:
		return fmt.Errorf("floorcontrol: unexpected PDU %q at polling controller from %s", pdu.Name(), src)
	}
}
