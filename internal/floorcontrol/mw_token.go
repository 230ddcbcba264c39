package floorcontrol

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/middleware"
	"repro/internal/svc"
)

// MWToken is the token-based (symmetric) middleware solution of Figure
// 4(c): "a list with the set of available resources circulates among the
// subscribers. Each subscriber examines the list ..., removes the
// identifier of the resource desired and forwards the list invoking an
// operation in the interface of the following subscriber. When a
// subscriber wants to release a resource, it inserts the resource
// identifier to be released in the list." The subscriber set is known a
// priori (no ring management, per the paper's simplification).
//
// Every subscriber part exposes a typed pass(set<ResourceId>) operation
// and drives a pass port to its ring successor — the token manipulation
// is the interaction functionality scattered across all application
// parts.
type MWToken struct{}

var _ Solution = (*MWToken)(nil)

// Name implements Solution.
func (*MWToken) Name() string { return "mw-token" }

// Paradigm implements Solution.
func (*MWToken) Paradigm() Paradigm { return ParadigmMiddleware }

// Style implements Solution.
func (*MWToken) Style() Style { return StyleToken }

// Figure implements Solution.
func (*MWToken) Figure() string { return "Fig 4(c)" }

// Scattering implements Solution: per subscriber part, 3 interaction
// operations (pass implementation, token examination/manipulation,
// forward invocation). There is no controller.
func (*MWToken) Scattering(n int) Scattering {
	return Scattering{AppPartOps: 3 * n}
}

// tokenArgs is the typed circulating token: the availability list.
type tokenArgs struct {
	Available []string
	// Gen is the token's hop generation under churn: it increments on
	// every forward, so each part sees strictly increasing generations
	// and can discard an at-least-once redelivered pass (a churn retry
	// whose first copy landed) — the one failure that would fork the
	// token into two. Zero fault-free and then kept off the wire, so
	// fault-free encodings stay byte-identical to the pre-churn token.
	Gen uint64
}

// Wire layouts of the pass argument record, with and without the
// (churn-only) generation.
var (
	recToken    = codec.CompileRecord("available")
	recTokenGen = codec.CompileRecord("available", "gen")

	slotTokenAvail = recTokenGen.Slot("available")
	slotTokenGen   = recTokenGen.Slot("gen")
)

func encTokenArgs(buf []byte, t tokenArgs) ([]byte, error) {
	if t.Gen == 0 {
		e := recToken.Encoder(buf)
		e.Strings("available", t.Available)
		return e.Finish()
	}
	e := recTokenGen.Encoder(buf)
	e.Strings("available", t.Available)
	e.Int("gen", int64(t.Gen))
	return e.Finish()
}

func decTokenArgs(v codec.MsgView) (tokenArgs, error) {
	var sl codec.Slots
	recTokenGen.Resolve(&v, &sl)
	avail, ok := sl.StringsAt(slotTokenAvail, nil)
	if !ok {
		return tokenArgs{}, fmt.Errorf("malformed token: available is not a list of strings")
	}
	gen, _ := sl.IntAt(slotTokenGen)
	return tokenArgs{Available: avail, Gen: uint64(gen)}, nil
}

// Build implements Solution. The token starts at the first subscriber
// carrying every resource.
func (s *MWToken) Build(env *Env) (map[string]AppPart, error) {
	b, err := bindService(env, s.Name())
	if err != nil {
		return nil, err
	}
	if len(env.Subscribers) == 0 {
		return nil, fmt.Errorf("floorcontrol: %s requires at least one subscriber", s.Name())
	}
	parts := make(map[string]AppPart, len(env.Subscribers))
	ring := make([]*mwTokenPart, len(env.Subscribers))
	for i, sub := range env.Subscribers {
		part := &mwTokenPart{env: env, sub: sub}
		if err := part.export(b); err != nil {
			return nil, fmt.Errorf("floorcontrol: register subscriber %q: %w", sub, err)
		}
		parts[sub] = part
		ring[i] = part
	}
	// The pass ports close the ring once every object is registered.
	for i, part := range ring {
		next := env.Subscribers[(i+1)%len(env.Subscribers)]
		if part.pass, err = svc.NewPort[tokenArgs, ack](b, subObjRef(next), "pass", encTokenArgs, nil); err != nil {
			return nil, err
		}
		part.next = next
	}
	// Inject the initial token at the first subscriber. Under churn the
	// token carries generation 1 from the start so every hop is dedupable.
	initial := append([]string(nil), env.Resources...)
	var startGen uint64
	if env.Churn {
		startGen = 1
	}
	env.Time.ScheduleFunc(0, func() { ring[0].onToken(initial, startGen) })
	return parts, nil
}

// mwTokenPart is one subscriber's application part in the symmetric
// solution.
type mwTokenPart struct {
	env  *Env
	sub  string
	node int32 // the subscriber node's platform id, resolved by export
	next string
	pass *svc.Port[tokenArgs, ack]

	wantRes   string
	wantDone  func()
	toRelease []string
	seenGen   uint64 // highest token generation accepted (churn only)
}

var _ AppPart = (*mwTokenPart)(nil)

// NodeID implements svc.Caller: the part passes from its subscriber's
// node.
func (p *mwTokenPart) NodeID() int32 { return p.node }

// export exposes the pass operation to the previous subscriber in the
// ring and resolves the part's node id.
func (p *mwTokenPart) export(b *svc.Binding) error {
	e, err := b.NewExport(subObjRef(p.sub), middleware.Addr(p.sub))
	if err != nil {
		return err
	}
	if err := svc.HandleOp(e, "pass", decTokenArgs, encAck, p.onPass); err != nil {
		return err
	}
	if err := e.Register(); err != nil {
		return err
	}
	p.node = e.NodeID()
	return nil
}

func (p *mwTokenPart) onPass(t tokenArgs, respond func(ack, error)) {
	if t.Gen != 0 {
		dup := t.Gen <= p.seenGen
		if !dup {
			p.seenGen = t.Gen
		}
		if dup {
			// At-least-once redelivery of a pass whose first copy landed:
			// the token has moved on. Acknowledging without acting keeps
			// exactly one token alive on the ring.
			respond(ack{}, nil)
			return
		}
	}
	respond(ack{}, nil)
	p.onToken(t.Available, t.Gen)
}

// onToken examines the circulating availability list, takes a wanted
// resource, inserts releases, and forwards the token after the hop delay.
// gen is the generation this part received the token at (zero fault-free);
// the forwarded token carries gen+1.
//
// The token is the single carrier of liveness, so the forward is an
// at-least-once call: under churn a transient pass failure — successor
// down, this part's own node down (a crashed node cannot transmit, so
// the platform fails its invokes fast), or the pass interrupted by a
// crash — is retried with the same generation every hop delay
// (Env.again). The successor's generation dedup makes redelivery safe
// when the first copy did land.
func (p *mwTokenPart) onToken(avail []string, gen uint64) {
	// Insert releases accumulated since the last visit.
	avail = append(avail, p.toRelease...)
	p.toRelease = nil
	// Take the wanted resource if present.
	var granted func()
	var grantedRes string
	if p.wantRes != "" {
		for i, r := range avail {
			if r == p.wantRes {
				avail = append(avail[:i], avail[i+1:]...)
				granted = p.wantDone
				grantedRes = p.wantRes
				p.wantRes, p.wantDone = "", nil
				break
			}
		}
	}
	if granted != nil {
		p.env.observe(p.sub, PrimGranted, grantedRes)
		granted()
	}
	if gen != 0 {
		gen++
	}
	delay := p.env.TokenHopDelay
	p.pass.CallRetry(p, tokenArgs{Available: avail, Gen: gen}, delay, delay, p.env.acked())
}

// Acquire implements AppPart: registers interest; the token visit grants.
func (p *mwTokenPart) Acquire(res string, done func()) {
	p.env.observe(p.sub, PrimRequest, res)
	if p.wantRes != "" {
		panic(fmt.Sprintf("floorcontrol: %q has outstanding acquire of %q", p.sub, p.wantRes))
	}
	p.wantRes, p.wantDone = res, done
}

// Release implements AppPart: the identifier re-enters the list at the
// next token visit.
func (p *mwTokenPart) Release(res string) {
	p.env.observe(p.sub, PrimFree, res)
	p.toRelease = append(p.toRelease, res)
}
