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

// The PDUs of the sequencer protocol: submit carries the say params
// record verbatim, as the user gave it; ordered is the sequencer's
// broadcast.
var (
	pduSubmit  = protocol.NewPDU("submit", appendVerbatim)
	pduOrdered = protocol.NewPDU("ordered", encOrdered)
)

// appendVerbatim appends an already-encoded record.
func appendVerbatim(buf, rec []byte) ([]byte, error) { return append(buf, rec...), nil }

// ordered is one broadcast: the submit whose msgid and text it splices
// verbatim (codec.RawNil when absent), resolved against recOrdered, and
// the speaker. The submit slots borrow their delivery buffer: encode
// before the delivery returns.
type ordered struct {
	submit  codec.Slots
	speaker string
}

// recOrdered is the wire layout of the ordered record, which is also the
// deliver primitive's parameter record; the submit record is read by its
// slots too.
var (
	recOrdered  = codec.CompileRecord(ParamMsgID, ParamSpeaker, ParamText)
	slotMsgID   = recOrdered.Slot(ParamMsgID)
	slotSpeaker = recOrdered.Slot(ParamSpeaker)
	slotText    = recOrdered.Slot(ParamText)
)

// newOrdered resolves the submit record of one broadcast.
func newOrdered(submit *codec.MsgView, speaker string) ordered {
	o := ordered{speaker: speaker}
	recOrdered.Resolve(submit, &o.submit)
	return o
}

func encOrdered(buf []byte, o ordered) ([]byte, error) {
	msgID, ok := o.submit.RawAt(slotMsgID)
	if !ok {
		msgID = codec.RawNil
	}
	text, ok := o.submit.RawAt(slotText)
	if !ok {
		text = codec.RawNil
	}
	e := recOrdered.Encoder(buf)
	e.Raw(ParamMsgID, msgID)
	e.Str(ParamSpeaker, o.speaker)
	e.Raw(ParamText, text)
	return e.Finish()
}

// deliverParams re-encodes an ordered broadcast as the deliver params.
func deliverParams(buf []byte, pdu *codec.MsgView) ([]byte, error) {
	o := newOrdered(pdu, "")
	speaker, _ := o.submit.StrAt(slotSpeaker)
	o.speaker = string(speaker)
	return encOrdered(buf, o)
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
func (e *SequencerEntity) FromUser(primitive string, _ []byte) error {
	return fmt.Errorf("chat: sequencer has no service user (got %q)", primitive)
}

// FromPeer implements protocol.Entity. The ordered broadcast is encoded
// once and fanned out to every member through SendMulti, instead of
// re-marshalling the same PDU per member.
func (e *SequencerEntity) FromPeer(src protocol.Addr, pdu codec.MsgView) error {
	if !pdu.NameIs(pduSubmit.Name()) {
		return fmt.Errorf("chat: unexpected PDU %q at sequencer", pdu.Name())
	}
	return pduOrdered.SendMulti(e.ctx, e.members, newOrdered(&pdu, string(src)))
}

// ParticipantEntity translates between chat primitives and the sequencer
// protocol at one SAP.
type ParticipantEntity struct {
	ctx       *protocol.Context
	sequencer protocol.Addr
	params    []byte // deliver params scratch
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
func (e *ParticipantEntity) FromUser(primitive string, params []byte) error {
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
	e.params, _ = deliverParams(e.params[:0], &pdu) //nolint:errcheck // raw splices of a parsed view always encode
	e.ctx.DeliverToUser(PrimDeliver, e.params)
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
