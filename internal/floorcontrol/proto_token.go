package floorcontrol

import (
	"fmt"
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
		n := len(env.Subscribers)
		entities := make([]*tokenSubEntity, n)
		for i, sub := range env.Subscribers {
			prev, next := env.Subscribers[(i+n-1)%n], env.Subscribers[(i+1)%n]
			e := &tokenSubEntity{prev: protocol.Addr(prev), next: protocol.Addr(next),
				hop: env.TokenHopDelay, names: env.names()}
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
	prev   protocol.Addr // the ring predecessor, the one source of pass
	next   protocol.Addr
	hop    time.Duration
	ctx    *protocol.Context
	names  *deployment
	params paramBuf

	wantRes   string
	toRelease []string

	// held is the availability list of the token this entity forwards
	// after its hop delay; pass, built once in Init, forwards it. A pass
	// from any source but the ring predecessor is dropped, so the ring
	// keeps its one token and one slot holds it.
	held []string
	pass func()
}

var _ protocol.Entity = (*tokenSubEntity)(nil)

// Init implements protocol.Entity.
func (e *tokenSubEntity) Init(ctx *protocol.Context) error {
	e.ctx = ctx
	e.pass = e.passHeld
	return nil
}

// FromUser implements protocol.Entity.
func (e *tokenSubEntity) FromUser(primitive string, params []byte) error {
	_, res := e.names.resid(params)
	switch primitive {
	case PrimRequest:
		if e.wantRes != "" {
			return fmt.Errorf("floorcontrol: outstanding request for %q", e.wantRes)
		}
		e.wantRes = res
		return nil
	case PrimFree:
		e.toRelease = append(e.toRelease, res)
		return nil
	default:
		return fmt.Errorf("floorcontrol: unexpected primitive %q", primitive)
	}
}

// FromPeer implements protocol.Entity. The token comes from the ring
// predecessor only: a pass from any other source would be a second
// token, and is dropped.
func (e *tokenSubEntity) FromPeer(src protocol.Addr, pdu codec.MsgView) error {
	if src != e.prev {
		return fmt.Errorf("floorcontrol: PDU %q from %s, not the ring predecessor %s", pdu.Name(), src, e.prev)
	}
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
// avail is the entity's own: freshly decoded, or the initial list.
func (e *tokenSubEntity) onToken(avail []string) {
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
	if grantedRes != "" {
		e.ctx.DeliverToUser(PrimGranted, e.params.of(grantedRes))
	}
	e.held = avail
	e.ctx.Schedule(e.hop, e.pass)
}

// passHeld forwards the held token to the next ring position.
func (e *tokenSubEntity) passHeld() {
	avail := e.held
	e.held = nil
	if err := pduPass.Send(e.ctx, e.next, tokenArgs{Available: avail}); err != nil {
		panic(fmt.Sprintf("floorcontrol: token pass to %q: %v", e.next, err))
	}
}
