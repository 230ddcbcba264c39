package chat

import (
	"fmt"
	"strings"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/mda"
	"repro/internal/middleware"
)

// PIM returns the platform-independent service design of the ordered-chat
// service: the same sequencer logic as the protocol solution, expressed
// over abstract directed messaging. Through the Figure 10 trajectory it
// deploys on all four concrete platforms, with recursion bridging the
// RMI-like and MQ-like concept gaps — a second, independent exercise of
// the MDA engine. Its service definition is runSpec, shared read-only.
func PIM() *mda.PIM {
	return &mda.PIM{
		Name:    "ordered-chat-pim",
		Service: runSpec,
		Abstract: mda.AbstractPlatform{
			Name:     "directed-messaging",
			Requires: []mda.Concept{mda.ConceptAsyncMessage},
		},
		Build: func(plan mda.Plan) (*mda.Logic, error) {
			if len(plan.SAPs) < 2 {
				return nil, fmt.Errorf("chat: PIM needs at least two SAPs")
			}
			logic := &mda.Logic{
				Components: make(map[mda.ComponentID]mda.Component),
				Placement:  make(map[mda.ComponentID]middleware.Addr),
				SAPBinding: make(map[core.SAP]mda.ComponentID),
			}
			const seq = mda.ComponentID("sequencer")
			var members []mda.ComponentID
			for _, sap := range plan.SAPs {
				id := mda.ComponentID("member:" + sap.ID)
				members = append(members, id)
				logic.Components[id] = &memberLogic{sequencer: seq}
				logic.Placement[id] = middleware.Addr(sap.ID)
				logic.SAPBinding[sap] = id
			}
			logic.Components[seq] = &sequencerLogic{members: members}
			logic.Placement[seq] = middleware.Addr(SequencerAddr)
			return logic, nil
		},
	}
}

// sequencerLogic is the sequencer as platform-independent service logic.
type sequencerLogic struct {
	ctx     *mda.LogicContext
	members []mda.ComponentID
}

var _ mda.Component = (*sequencerLogic)(nil)

// Start implements mda.Component.
func (s *sequencerLogic) Start(ctx *mda.LogicContext) error {
	s.ctx = ctx
	return nil
}

// FromUser implements mda.Component.
func (s *sequencerLogic) FromUser(primitive string, _ []byte) error {
	return fmt.Errorf("chat: sequencer logic has no service user (got %q)", primitive)
}

// OnMessage implements mda.Component.
func (s *sequencerLogic) OnMessage(from mda.ComponentID, msg codec.MsgView) error {
	if !msg.NameIs(pduSubmit.Name()) {
		return fmt.Errorf("chat: unexpected message %q at sequencer logic", msg.Name())
	}
	out := newOrdered(&msg, strings.TrimPrefix(string(from), "member:"))
	for _, m := range s.members {
		if err := mda.Send(s.ctx, m, pduOrdered, out); err != nil {
			return err
		}
	}
	return nil
}

// memberLogic binds one SAP to the sequencer.
type memberLogic struct {
	ctx       *mda.LogicContext
	sequencer mda.ComponentID
	params    []byte // deliver params scratch
}

var _ mda.Component = (*memberLogic)(nil)

// Start implements mda.Component.
func (m *memberLogic) Start(ctx *mda.LogicContext) error {
	m.ctx = ctx
	return nil
}

// FromUser implements mda.Component.
func (m *memberLogic) FromUser(primitive string, params []byte) error {
	if primitive != PrimSay {
		return fmt.Errorf("chat: unexpected primitive %q", primitive)
	}
	return mda.Send(m.ctx, m.sequencer, pduSubmit, params)
}

// OnMessage implements mda.Component.
func (m *memberLogic) OnMessage(_ mda.ComponentID, msg codec.MsgView) error {
	if !msg.NameIs(pduOrdered.Name()) {
		return fmt.Errorf("chat: unexpected message %q at member logic", msg.Name())
	}
	m.params, _ = deliverParams(m.params[:0], &msg) //nolint:errcheck // raw splices of a parsed view always encode
	m.ctx.DeliverToUser(PrimDeliver, m.params)
	return nil
}
