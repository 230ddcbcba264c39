package chat

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// SequencerAddr is the hosting address of the sequencer entity.
const SequencerAddr protocol.Addr = "sequencer"

// PDU names of the sequencer protocol.
const (
	pduSubmit  = "submit"
	pduOrdered = "ordered"
)

// SequencerEntity is the protocol's central entity: it imposes the total
// order by broadcasting utterances in arrival order.
type SequencerEntity struct {
	ctx     *protocol.Context
	members []protocol.Addr
}

var _ protocol.Entity = (*SequencerEntity)(nil)

// NewSequencerEntity creates the sequencer for a fixed member set.
func NewSequencerEntity(members []protocol.Addr) *SequencerEntity {
	return &SequencerEntity{members: append([]protocol.Addr(nil), members...)}
}

// Init implements protocol.Entity.
func (e *SequencerEntity) Init(ctx *protocol.Context) error {
	e.ctx = ctx
	return nil
}

// FromUser implements protocol.Entity; the sequencer serves no SAP.
func (e *SequencerEntity) FromUser(primitive string, _ codec.Record) error {
	return fmt.Errorf("chat: sequencer has no service user (got %q)", primitive)
}

// FromPeer implements protocol.Entity. The ordered broadcast is encoded
// once and fanned out to every member through SendPDUMulti, instead of
// re-marshalling the same PDU per member.
func (e *SequencerEntity) FromPeer(src protocol.Addr, pdu codec.Message) error {
	if pdu.Name != pduSubmit {
		return fmt.Errorf("chat: unexpected PDU %q at sequencer", pdu.Name)
	}
	bcast := codec.NewMessage(pduOrdered, codec.Record{
		ParamMsgID:   pdu.Fields[ParamMsgID],
		ParamText:    pdu.Fields[ParamText],
		ParamSpeaker: string(src),
	})
	return e.ctx.SendPDUMulti(e.members, bcast)
}

// ParticipantEntity translates between chat primitives and the sequencer
// protocol at one SAP.
type ParticipantEntity struct {
	ctx       *protocol.Context
	sequencer protocol.Addr
}

var _ protocol.Entity = (*ParticipantEntity)(nil)

// NewParticipantEntity creates a participant entity bound to a sequencer.
func NewParticipantEntity(sequencer protocol.Addr) *ParticipantEntity {
	return &ParticipantEntity{sequencer: sequencer}
}

// Init implements protocol.Entity.
func (e *ParticipantEntity) Init(ctx *protocol.Context) error {
	e.ctx = ctx
	return nil
}

// FromUser implements protocol.Entity.
func (e *ParticipantEntity) FromUser(primitive string, params codec.Record) error {
	if primitive != PrimSay {
		return fmt.Errorf("chat: unexpected primitive %q", primitive)
	}
	return e.ctx.SendPDU(e.sequencer, codec.NewMessage(pduSubmit, params))
}

// FromPeer implements protocol.Entity.
func (e *ParticipantEntity) FromPeer(_ protocol.Addr, pdu codec.Message) error {
	if pdu.Name != pduOrdered {
		return fmt.Errorf("chat: unexpected PDU %q at participant", pdu.Name)
	}
	e.ctx.DeliverToUser(PrimDeliver, pdu.Fields)
	return nil
}

// BuildProtocol assembles the sequencer protocol over lower for the given
// participant ids, returning the service boundary (bound per SAP) and the
// layer for statistics.
func BuildProtocol(kern *sim.Kernel, lower protocol.LowerService, participants []string) (core.Provider, *protocol.Layer, error) {
	layer := protocol.NewLayer("ordered-chat", kern, lower)
	members := make([]protocol.Addr, len(participants))
	for i, p := range participants {
		members[i] = protocol.Addr(p)
	}
	if err := layer.AddEntity(SequencerAddr, NewSequencerEntity(members)); err != nil {
		return nil, nil, fmt.Errorf("chat: add sequencer: %w", err)
	}
	for _, m := range members {
		if err := layer.AddEntity(m, NewParticipantEntity(SequencerAddr)); err != nil {
			return nil, nil, fmt.Errorf("chat: add participant %q: %w", m, err)
		}
	}
	binding := protocol.NewServiceBinding(layer)
	for i, p := range participants {
		if err := binding.Bind(ParticipantSAP(p), members[i]); err != nil {
			return nil, nil, fmt.Errorf("chat: bind %q: %w", p, err)
		}
	}
	return binding, layer, nil
}
