package floorcontrol

import (
	"fmt"
	"sync"

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
		ctrl := &callbackCtrlEntity{callbackCtrl: callbackCtrl{q: newResourceQueue(env.Resources)}}
		if err := layer.AddEntity(ctrlNode, ctrl); err != nil {
			return fmt.Errorf("floorcontrol: add controller entity: %w", err)
		}
		for _, sub := range env.Subscribers {
			if err := layer.AddEntity(protocol.Addr(sub), &callbackSubEntity{controller: ctrlNode}); err != nil {
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
}

var _ protocol.Entity = (*callbackSubEntity)(nil)

// Init implements protocol.Entity.
func (e *callbackSubEntity) Init(ctx *protocol.Context) error {
	e.ctx = ctx
	return nil
}

// FromUser implements protocol.Entity.
func (e *callbackSubEntity) FromUser(primitive string, params codec.Record) error {
	res, _ := params[ParamResource].(string)
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

// FromPeer implements protocol.Entity.
func (e *callbackSubEntity) FromPeer(_ protocol.Addr, pdu codec.MsgView) error {
	if !pdu.NameIs(pduGranted.Name()) {
		return fmt.Errorf("floorcontrol: unexpected PDU %q at subscriber entity", pdu.Name())
	}
	g, _ := decGrantArgs(pdu)
	e.ctx.DeliverToUser(PrimGranted, codec.Record{ParamResource: g.Res})
	return nil
}

// callbackCtrl is the callback controller's coordination — holder and
// FIFO queue per resource — shared by the controller protocol entity and
// the PIM controller logic. request and free return the subscriber to
// grant res to now ("" for none).
type callbackCtrl struct {
	mu sync.Mutex
	q  *resourceQueue
}

func (c *callbackCtrl) request(sub, res string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.q.known(res) {
		return "", fmt.Errorf("floorcontrol: request for unknown resource %q", res)
	}
	if c.q.tryAcquire(sub, res) {
		return sub, nil
	}
	c.q.enqueue(sub, res)
	return "", nil
}

func (c *callbackCtrl) free(sub, res string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
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
func (e *callbackCtrlEntity) FromUser(primitive string, _ codec.Record) error {
	return fmt.Errorf("floorcontrol: controller entity has no service user (got %q)", primitive)
}

// FromPeer implements protocol.Entity.
func (e *callbackCtrlEntity) FromPeer(src protocol.Addr, pdu codec.MsgView) error {
	a, _ := decCtrlArgs(pdu)
	var to string
	var err error
	switch {
	case pdu.NameIs(pduRequest.Name()):
		to, err = e.request(a.Sub, a.Res)
	case pdu.NameIs(pduFree.Name()):
		to, err = e.free(a.Sub, a.Res)
	default:
		return fmt.Errorf("floorcontrol: unexpected PDU %q at controller entity from %s", pdu.Name(), src)
	}
	if to == "" {
		return err
	}
	return pduGranted.Send(e.ctx, protocol.Addr(to), grantArgs{Res: a.Res})
}
