package floorcontrol

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/middleware"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/svc"
)

// Paradigm identifies which of the paper's two design paradigms a solution
// follows.
type Paradigm string

// Paradigms.
const (
	ParadigmMiddleware Paradigm = "middleware"
	ParadigmProtocol   Paradigm = "protocol"
)

// Style identifies the coordination style, matching the paper's (a), (b),
// (c) alternatives in Figures 4 and 6.
type Style string

// Coordination styles.
const (
	StyleCallback Style = "callback"
	StylePolling  Style = "polling"
	StyleToken    Style = "token"
)

// AppPart is the face of one subscriber's application part, as the
// workload driver sees it. Implementations differ per solution — that
// asymmetry is the point: for protocol solutions a single generic app part
// (written against core.Provider) serves all three styles, whereas every
// middleware solution needs its own app-part logic (the scattered
// interaction functionality of Figure 7).
type AppPart interface {
	// Acquire obtains exclusive access to the resource; done runs when
	// access is granted. At most one outstanding Acquire per app part
	// (subscribers are cooperative, §4).
	Acquire(res string, done func())
	// Release returns a resource previously granted.
	Release(res string)
}

// Env is the substrate a solution builds on. The workload driver prepares
// it; Build wires components or protocol entities into it.
type Env struct {
	// Time is the kernel the whole stack schedules on.
	Time     *sim.Kernel
	Net      *network.Network
	Observer *core.Observer

	// Subscribers and Resources name the deployment.
	Subscribers []string
	Resources   []string

	// PollInterval is used by polling-style solutions; TokenHopDelay by
	// token-style solutions.
	PollInterval  time.Duration
	TokenHopDelay time.Duration

	// Platform is set for middleware solutions.
	Platform *middleware.Platform
	// Lower is the reliable-datagram lower service for protocol solutions.
	Lower protocol.LowerService
	// Layer is set by protocol solutions for PDU statistics.
	Layer *protocol.Layer

	// Churn is set when the workload runs under a crash/restart fault
	// plan. Solutions then arm their recovery machinery — idempotent
	// retries, probe deadlines, token redelivery dedup. The machinery
	// must stay fully inert when Churn is false: fault-free runs keep
	// their exact historical event streams and wire bytes (the golden
	// band hashes pin this).
	Churn bool

	// obsParams holds one observation params record per resource, built
	// once per run and shared by every event observed for that resource
	// (core.Event.Params is read-only). Never mutated after the run
	// starts, so reads need no lock.
	obsParams map[string]codec.Record
}

// resourceParams builds the shared per-resource observation params.
func resourceParams(resources []string) map[string]codec.Record {
	m := make(map[string]codec.Record, len(resources))
	for _, res := range resources {
		m[res] = codec.Record{ParamResource: res}
	}
	return m
}

// observe reports a service-primitive execution at a subscriber's SAP to
// the conformance observer. The params record is the resource's shared
// read-only record (a fresh one for a resource outside the deployment).
func (e *Env) observe(sub, primitive, res string) {
	params, ok := e.obsParams[res]
	if !ok {
		params = codec.Record{ParamResource: res}
	}
	_ = e.Observer.Observe(SubscriberSAP(sub), primitive, params) //nolint:errcheck // violations surface via Observer.Err
}

// Solution is one of the six floor-control implementations.
type Solution interface {
	// Name is the unique solution identifier, e.g. "mw-callback".
	Name() string
	Paradigm() Paradigm
	Style() Style
	// Figure returns the paper figure the solution reproduces, e.g.
	// "Fig 4(a)".
	Figure() string
	// Scattering reports where the interaction functionality lives for a
	// deployment of n subscribers (totals, not per-part).
	Scattering(n int) Scattering
	// Build wires the solution into env and returns the application part
	// of every subscriber.
	Build(env *Env) (map[string]AppPart, error)
}

// Solutions returns all six solutions in paper order: Figure 4 (a,b,c)
// then Figure 6 (a,b,c).
func Solutions() []Solution {
	return []Solution{
		&MWCallback{},
		&MWPolling{},
		&MWToken{},
		&ProtoCallback{},
		&ProtoPolling{},
		&ProtoToken{},
	}
}

// SolutionByName finds a solution by its identifier. Names of the form
// "mda-<concrete-platform>" resolve to trajectory solutions (see
// MDASolutions).
func SolutionByName(name string) (Solution, bool) {
	for _, s := range Solutions() {
		if s.Name() == name {
			return s, true
		}
	}
	if rest, ok := strings.CutPrefix(name, "mda-"); ok {
		if s, err := NewMDASolution(rest); err == nil {
			return s, true
		}
	}
	return nil, false
}

// ctrlNode is the hosting node of asymmetric-solution controllers.
const ctrlNode = "ctrl"

// ctrlStandby is the node a failover rebind policy re-homes a crashed
// controller onto. It is never part of the fault plan, so a failed-over
// controller stays up for the rest of the run.
const ctrlStandby = "ctrl2"

// Rebind policies for controller-node crashes (Config.RebindPolicy).
const (
	// RebindNone waits out the crashed controller's MTTR: callers fail
	// fast with ErrUnavailable and retry until the node restarts.
	RebindNone = "none"
	// RebindFailover re-homes the controller export onto ctrlStandby at
	// the instant its node crashes (live rebinding).
	RebindFailover = "failover"
)

// ControllerFailover is the optional Solution extension for the
// asymmetric middleware solutions, whose coordination state lives in a
// controller component on a single node — the paradigm's built-in single
// point of failure. Implementers opt that node into the churn fault plan
// and expose the live-rebinding move the failover policy performs.
// Protocol and MDA solutions keep their coordination behind the service
// boundary with no per-solution recovery hook, so only their subscriber
// nodes churn.
type ControllerFailover interface {
	// ControllerNode returns the controller's current hosting node.
	ControllerNode() middleware.Addr
	// Failover re-homes the controller component onto node, carrying its
	// coordination state. The churn driver calls it at the instant the
	// controller's node crashes under RebindFailover.
	Failover(node middleware.Addr) error
}

// retryable reports whether a churn-time call failure is transient: the
// callee node is down (fail-fast, or the call interrupted by its crash)
// or the call timed out. A timeout fires only when the profile sets a
// CallTimeout, and no built-in profile does. An application-level
// rejection is not retryable — no redelivery can fix it.
func retryable(err error) bool {
	return errors.Is(err, svc.ErrUnavailable) || errors.Is(err, svc.ErrTimeout)
}

// sendCtrl invokes a void controller operation through a shared typed
// port. Fault-free, a submission failure is a deployment bug and panics.
// Under churn a transient failure — controller crashed and not yet
// restarted or failed over, the call interrupted mid-flight by a crash,
// or (on a profile that sets a CallTimeout; no built-in one does) the
// call timed out — is retried after a poll interval until it gets
// through. Retries resend args verbatim, Seq included: at-least-once
// submission is safe because the controllers dedup stamped submissions
// (seenSeqs) and acknowledge duplicates as successes.
func sendCtrl(env *Env, port *svc.Port[ctrlArgs, ack], from middleware.Addr, args ctrlArgs, op string) {
	var cont func(ack, error)
	if env.Churn {
		cont = func(_ ack, err error) {
			switch {
			case err == nil:
			case retryable(err):
				env.Time.ScheduleFunc(env.PollInterval, func() { sendCtrl(env, port, from, args, op) })
			default:
				panic(fmt.Sprintf("floorcontrol: %s from %q: %v", op, from, err))
			}
		}
	}
	if err := port.Call(from, args, cont); err != nil {
		panic(fmt.Sprintf("floorcontrol: %s from %q: %v", op, from, err))
	}
}

// bindService declares the floor-control service over the env's
// middleware platform and returns the typed-port binding every
// middleware solution programs against. The bind profile-checks the
// paper's §4.1 assumption ("we assume a component middleware that
// supports remote invocation"): a profile without RPC fails with
// svc.ErrUnsupportedPattern.
func bindService(env *Env, solution string) (*svc.Binding, error) {
	if env.Platform == nil {
		return nil, fmt.Errorf("floorcontrol: %s requires a middleware platform", solution)
	}
	service, err := svc.New(Spec())
	if err != nil {
		return nil, fmt.Errorf("floorcontrol: %s: %w", solution, err)
	}
	b, err := service.Bind(env.Platform, middleware.PatternRPC)
	if err != nil {
		return nil, fmt.Errorf("floorcontrol: %s requires remote invocation: %w", solution, err)
	}
	return b, nil
}

// subObjRef names a subscriber's component object on the middleware
// platform.
func subObjRef(sub string) middleware.ObjRef {
	return middleware.ObjRef("sub:" + sub)
}

// ctrlArgs is the typed request of the asymmetric controller operations
// (request_permission, is_available, free): the subscriber identity plus
// the resource identification every floor-control primitive carries.
type ctrlArgs struct {
	Sub string
	Res string
	// Seq identifies the logical submission under churn so controllers
	// can absorb at-least-once redelivery: every retry of one operation
	// carries the Seq of the original. Each subscriber part stamps its
	// submissions from a private counter, so (Sub, Seq) is unique per
	// logical operation. Zero fault-free — unstamped submissions are
	// never deduped and stay off the wire, keeping fault-free encodings
	// byte-identical to the pre-churn protocol.
	Seq uint64
}

// Wire layouts of the argument records. Seq is kept off the wire when
// zero, so each optional-field set compiles to its own record schema.
var (
	recCtrl     = codec.CompileRecord(ParamResource, "subid")
	recCtrlSeq  = codec.CompileRecord(ParamResource, "seq", "subid")
	recGrant    = codec.CompileRecord(ParamResource)
	recGrantSeq = codec.CompileRecord(ParamResource, "seq")
)

// encCtrlArgs appends the controller operations' argument record.
func encCtrlArgs(buf []byte, a ctrlArgs) ([]byte, error) {
	if a.Seq == 0 {
		e := recCtrl.Encoder(buf)
		e.Str(ParamResource, a.Res)
		e.Str("subid", a.Sub)
		return e.Finish()
	}
	e := recCtrlSeq.Encoder(buf)
	e.Str(ParamResource, a.Res)
	e.Int("seq", int64(a.Seq))
	e.Str("subid", a.Sub)
	return e.Finish()
}

// decCtrlArgs decodes a controller argument record; absent or mistyped
// fields decode to zero values.
func decCtrlArgs(v codec.MsgView) (ctrlArgs, error) {
	sub, _ := v.Str("subid")
	res, _ := v.Str(ParamResource)
	seq, _ := v.Int("seq")
	return ctrlArgs{Sub: string(sub), Res: string(res), Seq: uint64(seq)}, nil
}

// seenSeqs records which stamped subscriber submissions a controller has
// already processed, absorbing at-least-once redelivery under churn.
// Retries can arrive after later fresh submissions from the same
// subscriber (a limbo free redelivered after the next cycle's request),
// so this must be an exact per-subscriber set — a high-watermark would
// silently drop the reordered original. Callers serialize access under
// the controller mutex.
type seenSeqs map[string]map[uint64]struct{}

// dup reports whether (sub, seq) was already processed, recording fresh
// stamped submissions. Unstamped (fault-free) submissions never dedup.
func (s seenSeqs) dup(sub string, seq uint64) bool {
	if seq == 0 {
		return false
	}
	m := s[sub]
	if m == nil {
		m = make(map[uint64]struct{})
		s[sub] = m
	}
	if _, ok := m[seq]; ok {
		return true
	}
	m[seq] = struct{}{}
	return false
}

// grantArgs is the typed payload of the controller→subscriber grant
// callback.
type grantArgs struct {
	Res string
	// Seq echoes the Seq of the request being answered, so the
	// subscriber can discard a duplicate grant (a churn retry whose
	// first copy landed before the subscriber crashed) instead of
	// mistaking it for the answer to a later request. Zero fault-free.
	Seq uint64
}

// encGrantArgs appends the grant callback's argument record.
func encGrantArgs(buf []byte, a grantArgs) ([]byte, error) {
	if a.Seq == 0 {
		e := recGrant.Encoder(buf)
		e.Str(ParamResource, a.Res)
		return e.Finish()
	}
	e := recGrantSeq.Encoder(buf)
	e.Str(ParamResource, a.Res)
	e.Int("seq", int64(a.Seq))
	return e.Finish()
}

// decGrantArgs decodes a grant argument record.
func decGrantArgs(v codec.MsgView) (grantArgs, error) {
	res, _ := v.Str(ParamResource)
	seq, _ := v.Int("seq")
	return grantArgs{Res: string(res), Seq: uint64(seq)}, nil
}

// ack is the empty acknowledgement reply of void operations.
type ack struct{}

// encAck appends the empty reply record of a void operation.
func encAck(buf []byte, _ ack) ([]byte, error) { return append(buf, codec.RawEmptyRecord...), nil }

// resourceQueue is the controller-side bookkeeping shared by the two
// asymmetric coordination styles: current holder and FIFO waiters, per
// resource.
type resourceQueue struct {
	holder  map[string]string   // resource → subscriber ("" = free)
	waiters map[string][]string // resource → FIFO of subscribers
}

func newResourceQueue(resources []string) *resourceQueue {
	q := &resourceQueue{
		holder:  make(map[string]string, len(resources)),
		waiters: make(map[string][]string, len(resources)),
	}
	for _, r := range resources {
		q.holder[r] = ""
	}
	return q
}

// known reports whether the resource is managed.
func (q *resourceQueue) known(res string) bool {
	_, ok := q.holder[res]
	return ok
}

// tryAcquire grants res to sub if free, returning success.
func (q *resourceQueue) tryAcquire(sub, res string) bool {
	if q.holder[res] != "" {
		return false
	}
	q.holder[res] = sub
	return true
}

// enqueue adds sub to the FIFO for res.
func (q *resourceQueue) enqueue(sub, res string) {
	q.waiters[res] = append(q.waiters[res], sub)
}

// release frees res held by sub and pops the next waiter (who becomes the
// holder), returning the new holder and whether there is one. It returns
// an error when sub does not hold res — a protocol violation by the
// caller.
func (q *resourceQueue) release(sub, res string) (string, bool, error) {
	if q.holder[res] != sub {
		return "", false, fmt.Errorf("floorcontrol: %q released %q held by %q", sub, res, q.holder[res])
	}
	q.holder[res] = ""
	w := q.waiters[res]
	if len(w) == 0 {
		return "", false, nil
	}
	next := w[0]
	q.waiters[res] = w[1:]
	q.holder[res] = next
	return next, true, nil
}
