package floorcontrol

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/protocol"
)

// ProtoCallback is the asymmetric protocol solution of Figure 6(a),
// mirroring the callback-based middleware solution. PDUs:
//
//	request (subid, resid)
//	granted (resid)
//	free    (resid)
//
// A controller protocol entity centralizes coordination; subscriber
// protocol entities translate service primitives to PDUs and back. All of
// this lives behind the floor-control service boundary: the user parts
// never see it.
type ProtoCallback struct{}

var _ Solution = (*ProtoCallback)(nil)

// Name implements Solution.
func (*ProtoCallback) Name() string { return "proto-callback" }

// Paradigm implements Solution.
func (*ProtoCallback) Paradigm() Paradigm { return ParadigmProtocol }

// Style implements Solution.
func (*ProtoCallback) Style() Style { return StyleCallback }

// Figure implements Solution.
func (*ProtoCallback) Figure() string { return "Fig 6(a)" }

// Scattering implements Solution: the app parts contain no interaction
// functionality (they execute service primitives only); the interaction
// system comprises 3 subscriber-entity handlers and 3 controller-entity
// handlers.
func (*ProtoCallback) Scattering(n int) Scattering {
	return Scattering{InteractionSystemOps: 3 + 3}
}

// Build implements Solution.
func (s *ProtoCallback) Build(env *Env) (map[string]AppPart, error) {
	return buildProtocolSolution(env, s.Name(), func(layer *protocol.Layer) error {
		dep := env.names()
		ctrl := &callbackCtrlEntity{callbackCtrl: callbackCtrl{q: newResourceQueue(dep)}}
		if err := layer.AddEntity(ctrlNode, ctrl); err != nil {
			return fmt.Errorf("floorcontrol: add controller entity: %w", err)
		}
		for _, sub := range env.Subscribers {
			if err := layer.AddEntity(protocol.Addr(sub), &callbackSubEntity{controller: ctrlNode, names: dep}); err != nil {
				return fmt.Errorf("floorcontrol: add subscriber entity %q: %w", sub, err)
			}
		}
		return nil
	})
}

// callbackSubEntity translates between service primitives and PDUs at one
// subscriber's access point.
type callbackSubEntity struct {
	controller protocol.Addr
	ctx        *protocol.Context
	names      *deployment
	params     paramBuf
}

var _ protocol.Entity = (*callbackSubEntity)(nil)

// Init implements protocol.Entity.
func (e *callbackSubEntity) Init(ctx *protocol.Context) error {
	e.ctx = ctx
	return nil
}

// FromUser implements protocol.Entity.
func (e *callbackSubEntity) FromUser(primitive string, params []byte) error {
	_, res := e.names.resid(params)
	args := ctrlArgs{Sub: string(e.ctx.Self()), Res: res}
	switch primitive {
	case PrimRequest:
		return pduRequest.Send(e.ctx, e.controller, args)
	case PrimFree:
		return pduFree.Send(e.ctx, e.controller, args)
	default:
		return fmt.Errorf("floorcontrol: unexpected primitive %q", primitive)
	}
}

// FromPeer implements protocol.Entity. Only the controller grants: a
// PDU from any other source is dropped.
func (e *callbackSubEntity) FromPeer(src protocol.Addr, pdu codec.MsgView) error {
	if src != e.controller {
		return fmt.Errorf("floorcontrol: PDU %q from %s, not the controller", pdu.Name(), src)
	}
	if !pdu.NameIs(pduGranted.Name()) {
		return fmt.Errorf("floorcontrol: unexpected PDU %q at subscriber entity", pdu.Name())
	}
	_, res := e.names.resOf(pdu)
	e.ctx.DeliverToUser(PrimGranted, e.params.of(res))
	return nil
}

// callbackCtrl is the callback controller's coordination — holder and
// FIFO queue per resource — shared by the controller protocol entity and
// the PIM controller logic. request and free take a subscriber and a
// resource known to the deployment, and return the subscriber to grant
// res to now (-1 for none).
type callbackCtrl struct {
	q *resourceQueue
}

func (c *callbackCtrl) request(sub, res int32) int32 {
	if c.q.tryAcquire(sub, res) {
		return sub
	}
	c.q.enqueue(sub, res)
	return -1
}

func (c *callbackCtrl) free(sub, res int32) (int32, error) {
	next, _, err := c.q.release(sub, res)
	return next, err
}

// callbackCtrlEntity is the controller protocol entity, granting by PDU.
type callbackCtrlEntity struct {
	callbackCtrl
	ctx *protocol.Context
}

var _ protocol.Entity = (*callbackCtrlEntity)(nil)

// Init implements protocol.Entity.
func (e *callbackCtrlEntity) Init(ctx *protocol.Context) error {
	e.ctx = ctx
	return nil
}

// FromUser implements protocol.Entity: the controller has no local user.
func (e *callbackCtrlEntity) FromUser(primitive string, _ []byte) error {
	return fmt.Errorf("floorcontrol: controller entity has no service user (got %q)", primitive)
}

// FromPeer implements protocol.Entity. A subscriber speaks for itself
// only: a PDU whose subid is not its source is dropped.
func (e *callbackCtrlEntity) FromPeer(src protocol.Addr, pdu codec.MsgView) error {
	a, _ := e.q.d.decCtrlArgs(pdu)
	if err := a.unknown(); err != nil {
		return err
	}
	if string(src) != a.Sub {
		return fmt.Errorf("floorcontrol: PDU %q for %q from %s", pdu.Name(), a.Sub, src)
	}
	var to int32
	var err error
	switch {
	case pdu.NameIs(pduRequest.Name()):
		to = e.request(a.sub, a.res)
	case pdu.NameIs(pduFree.Name()):
		to, err = e.free(a.sub, a.res)
	default:
		return fmt.Errorf("floorcontrol: unexpected PDU %q at controller entity from %s", pdu.Name(), src)
	}
	if to < 0 {
		return err
	}
	return pduGranted.Send(e.ctx, protocol.Addr(e.q.d.subs[to]), grantArgs{Res: a.Res})
}
