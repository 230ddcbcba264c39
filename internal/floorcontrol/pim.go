package floorcontrol

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/mda"
	"repro/internal/middleware"
	"repro/internal/protocol"
)

// ParadigmMDA marks solutions produced by the model-driven trajectory —
// the paper's §6 "combined use of the paradigms": service logic designed
// protocol-style behind the service boundary, deployed on a reusable
// middleware platform.
const ParadigmMDA Paradigm = "mda"

// pimAbstract is the abstract platform the PIM's service logic is
// written against: directed asynchronous messaging.
func pimAbstract() mda.AbstractPlatform {
	return mda.AbstractPlatform{Name: "directed-messaging", Requires: []mda.Concept{mda.ConceptAsyncMessage}}
}

// PIM returns the platform-independent service design of the floor-control
// service: the Figure 11 artifact. The service logic is callback-style
// (controller + per-SAP agents) written against the abstract async-message
// concept; the abstract platform requires exactly that concept, so the
// Figure 10 trajectory can realize it on all four concrete platforms —
// directly on CORBA-like/JMS-like, recursively (Figure 12) on
// RMI-like (async-over-sync) and MQ-like (async-over-queue). The PIM's
// service definition is runSpec, the one compile every run shares
// read-only.
func PIM(resources []string) *mda.PIM {
	resources = append([]string(nil), resources...)
	return &mda.PIM{
		Name:     "floor-control-pim",
		Service:  runSpec,
		Abstract: pimAbstract(),
		Build: func(plan mda.Plan) (*mda.Logic, error) {
			if len(plan.SAPs) == 0 {
				return nil, fmt.Errorf("floorcontrol: PIM needs at least one SAP")
			}
			logic := &mda.Logic{
				Components: make(map[mda.ComponentID]mda.Component),
				Placement:  make(map[mda.ComponentID]middleware.Addr),
				SAPBinding: make(map[core.SAP]mda.ComponentID),
			}
			// The controller knows its subscribers by their agents'
			// component ids.
			agents := make([]string, len(plan.SAPs))
			for i, sap := range plan.SAPs {
				agents[i] = "agent:" + sap.ID
			}
			names := newDeployment(agents, resources)
			const controller = mda.ComponentID("controller")
			logic.Components[controller] = &pimController{
				callbackCtrl: callbackCtrl{q: newResourceQueue(names)}}
			logic.Placement[controller] = ctrlNode
			for i, sap := range plan.SAPs {
				id := mda.ComponentID(agents[i])
				logic.Components[id] = &pimAgent{controller: controller, names: names}
				logic.Placement[id] = middleware.Addr(sap.ID)
				logic.SAPBinding[sap] = id
			}
			return logic, nil
		},
	}
}

// The directed messages of the PIM logic besides the protocol's granted
// PDU: like granted, they carry the {resid} grant record.
var (
	msgRequest = protocol.NewPDU("request", encGrantArgs)
	msgFree    = protocol.NewPDU("free", encGrantArgs)
)

// pimController is the platform-independent coordinator logic: the same
// coordination as the callback protocol entity, expressed over abstract
// directed messages instead of PDUs.
type pimController struct {
	callbackCtrl
	ctx *mda.LogicContext
}

var _ mda.Component = (*pimController)(nil)

// Start implements mda.Component.
func (c *pimController) Start(ctx *mda.LogicContext) error {
	c.ctx = ctx
	return nil
}

// FromUser implements mda.Component; the controller serves no SAP.
func (c *pimController) FromUser(primitive string, _ []byte) error {
	return fmt.Errorf("floorcontrol: controller logic has no service user (got %q)", primitive)
}

// OnMessage implements mda.Component.
func (c *pimController) OnMessage(from mda.ComponentID, msg codec.MsgView) error {
	res, name := c.q.d.resOf(msg)
	if res < 0 {
		return fmt.Errorf("floorcontrol: unknown resource %q", name)
	}
	sub, ok := c.q.d.subIdx[string(from)]
	if !ok {
		return fmt.Errorf("floorcontrol: message from unknown component %q", from)
	}
	var to int32
	var err error
	switch {
	case msg.NameIs(msgRequest.Name()):
		to = c.request(sub, res)
	case msg.NameIs(msgFree.Name()):
		to, err = c.free(sub, res)
	default:
		return fmt.Errorf("floorcontrol: unexpected message %q at controller logic", msg.Name())
	}
	if to < 0 {
		return err
	}
	return mda.Send(c.ctx, mda.ComponentID(c.q.d.subs[to]), pduGranted, grantArgs{Res: name})
}

// pimAgent is the per-SAP service logic: it maps service primitives to
// abstract messages and back.
type pimAgent struct {
	controller mda.ComponentID
	ctx        *mda.LogicContext
	names      *deployment
	params     paramBuf
}

var _ mda.Component = (*pimAgent)(nil)

// Start implements mda.Component.
func (a *pimAgent) Start(ctx *mda.LogicContext) error {
	a.ctx = ctx
	return nil
}

// FromUser implements mda.Component.
func (a *pimAgent) FromUser(primitive string, params []byte) error {
	_, res := a.names.resid(params)
	switch primitive {
	case PrimRequest:
		return mda.Send(a.ctx, a.controller, msgRequest, grantArgs{Res: res})
	case PrimFree:
		return mda.Send(a.ctx, a.controller, msgFree, grantArgs{Res: res})
	default:
		return fmt.Errorf("floorcontrol: unexpected primitive %q", primitive)
	}
}

// OnMessage implements mda.Component.
func (a *pimAgent) OnMessage(_ mda.ComponentID, msg codec.MsgView) error {
	if !msg.NameIs(pduGranted.Name()) {
		return fmt.Errorf("floorcontrol: unexpected message %q at agent logic", msg.Name())
	}
	_, res := a.names.resOf(msg)
	a.ctx.DeliverToUser(PrimGranted, a.params.of(res))
	return nil
}

// MDASolution is a floor-control implementation produced by the MDA
// trajectory: the PIM deployed on one concrete platform. It plugs into the
// same workload harness as the six hand-built solutions, which is how
// Figure 10 becomes measurable.
type MDASolution struct {
	Target mda.ConcretePlatform

	// deployment is set by Build for statistics collection.
	deployment *mda.Deployment
}

var _ Solution = (*MDASolution)(nil)

// NewMDASolution returns the trajectory solution for a named concrete
// platform.
func NewMDASolution(platformName string) (*MDASolution, error) {
	target, ok := mda.ConcretePlatformByName(platformName)
	if !ok {
		return nil, fmt.Errorf("floorcontrol: unknown concrete platform %q", platformName)
	}
	return &MDASolution{Target: target}, nil
}

// Name implements Solution.
func (s *MDASolution) Name() string { return "mda-" + s.Target.Name }

// Paradigm implements Solution.
func (*MDASolution) Paradigm() Paradigm { return ParadigmMDA }

// Style implements Solution: the PIM logic is callback-style.
func (*MDASolution) Style() Style { return StyleCallback }

// Figure implements Solution.
func (*MDASolution) Figure() string { return "Fig 10-12" }

// Scattering implements Solution: app parts carry nothing (the generic
// service app part is reused); the service logic plus any adapter layer
// live behind the service boundary.
func (s *MDASolution) Scattering(int) Scattering {
	ops := 3 + 3 // controller logic + agent logic handlers
	if real, err := mda.Realize(pimAbstract(), s.Target, mda.DefaultRules()); err == nil {
		ops += len(real.Adapters)
	}
	return Scattering{InteractionSystemOps: ops}
}

// Build implements Solution.
func (s *MDASolution) Build(env *Env) (map[string]AppPart, error) {
	if env.Lower == nil {
		return nil, fmt.Errorf("floorcontrol: %s requires a lower-level service", s.Name())
	}
	saps := make([]core.SAP, len(env.Subscribers))
	for i, sub := range env.Subscribers {
		saps[i] = SubscriberSAP(sub)
	}
	dep, err := mda.Deploy(env.Time, env.Lower, PIM(env.Resources), s.Target, mda.Plan{SAPs: saps})
	if err != nil {
		return nil, fmt.Errorf("floorcontrol: deploy %s: %w", s.Name(), err)
	}
	s.deployment = dep
	env.Platform = dep.Platform()
	provider := env.Observer.Provider(dep)
	parts := make(map[string]AppPart, len(env.Subscribers))
	for _, sub := range env.Subscribers {
		parts[sub] = newServiceAppPart(provider, SubscriberSAP(sub), env.names())
	}
	return parts, nil
}

// Deployment returns the deployment created by the last Build, for
// realization introspection in experiments.
func (s *MDASolution) Deployment() *mda.Deployment { return s.deployment }

// MDASolutions returns trajectory solutions for all four concrete
// platforms, in Figure 10 order.
func MDASolutions() []*MDASolution {
	platforms := mda.ConcretePlatforms()
	out := make([]*MDASolution, len(platforms))
	for i, p := range platforms {
		out[i] = &MDASolution{Target: p}
	}
	return out
}
