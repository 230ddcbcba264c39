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

// The PDUs of the sequencer protocol: submit carries the say params as
// the user gave them; ordered is the sequencer's broadcast.
var (
	pduSubmit  = protocol.NewPDU("submit", encParams)
	pduOrdered = protocol.NewPDU("ordered", encOrdered)
)

func encParams(buf []byte, params codec.Record) ([]byte, error) { return codec.Append(buf, params) }

// ordered is one broadcast: the submit whose msgid and text it splices
// verbatim (codec.RawNil when absent), and the speaker. The submit view
// borrows its delivery buffer: encode before the delivery returns.
type ordered struct {
	submit  codec.MsgView
	speaker string
}

// recOrdered is the wire layout of the ordered record.
var recOrdered = codec.CompileRecord(ParamMsgID, ParamSpeaker, ParamText)

func encOrdered(buf []byte, o ordered) ([]byte, error) {
	msgID, ok := o.submit.Raw(ParamMsgID)
	if !ok {
		msgID = codec.RawNil
	}
	text, ok := o.submit.Raw(ParamText)
	if !ok {
		text = codec.RawNil
	}
	e := recOrdered.Encoder(buf)
	e.Raw(ParamMsgID, msgID)
	e.Str(ParamSpeaker, o.speaker)
	e.Raw(ParamText, text)
	return e.Finish()
}

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
// once and fanned out to every member through SendMulti, instead of
// re-marshalling the same PDU per member.
func (e *SequencerEntity) FromPeer(src protocol.Addr, pdu codec.MsgView) error {
	if !pdu.NameIs(pduSubmit.Name()) {
		return fmt.Errorf("chat: unexpected PDU %q at sequencer", pdu.Name())
	}
	return pduOrdered.SendMulti(e.ctx, e.members, ordered{submit: pdu, speaker: string(src)})
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
	return pduSubmit.Send(e.ctx, e.sequencer, params)
}

// FromPeer implements protocol.Entity.
func (e *ParticipantEntity) FromPeer(_ protocol.Addr, pdu codec.MsgView) error {
	if !pdu.NameIs(pduOrdered.Name()) {
		return fmt.Errorf("chat: unexpected PDU %q at participant", pdu.Name())
	}
	params, _ := pdu.Fields() //nolint:errcheck // views are validated on receipt
	e.ctx.DeliverToUser(PrimDeliver, params)
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
