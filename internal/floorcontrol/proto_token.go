package floorcontrol

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/protocol"
)

// ProtoToken is the symmetric protocol solution of Figure 6(c), mirroring
// the token-based middleware solution with a single PDU:
//
//	pass (list of resid)
//
// Subscriber protocol entities form a logical ring. The availability list
// circulates; an entity whose user has a pending request removes the
// wanted identifier and delivers granted; identifiers freed by the user
// re-enter the list at the entity's next token possession. The user part,
// as with every protocol solution, sees only request/granted/free.
type ProtoToken struct{}

var _ Solution = (*ProtoToken)(nil)

// Name implements Solution.
func (*ProtoToken) Name() string { return "proto-token" }

// Paradigm implements Solution.
func (*ProtoToken) Paradigm() Paradigm { return ParadigmProtocol }

// Style implements Solution.
func (*ProtoToken) Style() Style { return StyleToken }

// Figure implements Solution.
func (*ProtoToken) Figure() string { return "Fig 6(c)" }

// Scattering implements Solution: app parts 0; each ring position is one
// entity with 3 handlers, but the entity is part of the interaction
// system, not the app part — so the count stays constant and fully
// system-resident.
func (*ProtoToken) Scattering(n int) Scattering {
	return Scattering{InteractionSystemOps: 3}
}

// Build implements Solution.
func (s *ProtoToken) Build(env *Env) (map[string]AppPart, error) {
	if len(env.Subscribers) == 0 {
		return nil, fmt.Errorf("floorcontrol: %s requires at least one subscriber", s.Name())
	}
	return buildProtocolSolution(env, s.Name(), func(layer *protocol.Layer) error {
		entities := make([]*tokenSubEntity, len(env.Subscribers))
		for i, sub := range env.Subscribers {
			next := env.Subscribers[(i+1)%len(env.Subscribers)]
			e := &tokenSubEntity{next: protocol.Addr(next), hop: env.TokenHopDelay}
			if err := layer.AddEntity(protocol.Addr(sub), e); err != nil {
				return fmt.Errorf("floorcontrol: add token entity %q: %w", sub, err)
			}
			entities[i] = e
		}
		// Inject the initial token, carrying all resources, at the first
		// ring position.
		initial := append([]string(nil), env.Resources...)
		env.Time.ScheduleFunc(0, func() { entities[0].onToken(initial) })
		return nil
	})
}

// tokenSubEntity is one ring position.
type tokenSubEntity struct {
	next protocol.Addr
	hop  time.Duration
	ctx  *protocol.Context

	mu        sync.Mutex
	wantRes   string
	toRelease []string
}

var _ protocol.Entity = (*tokenSubEntity)(nil)

// Init implements protocol.Entity.
func (e *tokenSubEntity) Init(ctx *protocol.Context) error {
	e.ctx = ctx
	return nil
}

// FromUser implements protocol.Entity.
func (e *tokenSubEntity) FromUser(primitive string, params codec.Record) error {
	res, _ := params[ParamResource].(string)
	switch primitive {
	case PrimRequest:
		e.mu.Lock()
		defer e.mu.Unlock()
		if e.wantRes != "" {
			return fmt.Errorf("floorcontrol: outstanding request for %q", e.wantRes)
		}
		e.wantRes = res
		return nil
	case PrimFree:
		e.mu.Lock()
		defer e.mu.Unlock()
		e.toRelease = append(e.toRelease, res)
		return nil
	default:
		return fmt.Errorf("floorcontrol: unexpected primitive %q", primitive)
	}
}

// FromPeer implements protocol.Entity.
func (e *tokenSubEntity) FromPeer(_ protocol.Addr, pdu codec.MsgView) error {
	if !pdu.NameIs(pduPass.Name()) {
		return fmt.Errorf("floorcontrol: unexpected PDU %q at token entity", pdu.Name())
	}
	t, err := decTokenArgs(pdu)
	if err != nil {
		return fmt.Errorf("floorcontrol: %w", err)
	}
	e.onToken(t.Available)
	return nil
}

// onToken applies releases, takes a wanted resource, and forwards.
func (e *tokenSubEntity) onToken(avail []string) {
	e.mu.Lock()
	avail = append(avail, e.toRelease...)
	e.toRelease = nil
	grantedRes := ""
	if e.wantRes != "" {
		for i, r := range avail {
			if r == e.wantRes {
				avail = append(avail[:i], avail[i+1:]...)
				grantedRes = e.wantRes
				e.wantRes = ""
				break
			}
		}
	}
	e.mu.Unlock()
	if grantedRes != "" {
		e.ctx.DeliverToUser(PrimGranted, codec.Record{ParamResource: grantedRes})
	}
	forward := append([]string(nil), avail...)
	e.ctx.Schedule(e.hop, func() {
		err := pduPass.Send(e.ctx, e.next, tokenArgs{Available: forward})
		if err != nil {
			panic(fmt.Sprintf("floorcontrol: token pass to %q: %v", e.next, err))
		}
	})
}
