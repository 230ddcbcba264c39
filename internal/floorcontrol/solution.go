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
	// plan. The middleware solutions' at-least-once calls
	// (svc.Port.CallRetry, with again as their policy) then retry
	// transient failures, their submissions carry Seq/Gen stamps, and
	// controllers and parts dedup redelivery by them. Fault-free, the
	// same calls never re-arm and no stamp goes on the wire: fault-free
	// runs keep their exact historical event streams and wire bytes (the
	// golden band hashes pin this). Protocol solutions arm probe
	// deadlines and token redelivery dedup in their entities.
	Churn bool

	// dep holds the run's name tables (see names); obsBuf is the scratch
	// buffer observe encodes params into.
	dep    *deployment
	obsBuf paramBuf
	// ackPolicy is again for void calls, built once (see acked).
	ackPolicy func(ack, error) bool
}

// names returns the run's name tables, built on first use from
// Subscribers and Resources.
func (e *Env) names() *deployment {
	if e.dep == nil {
		e.dep = newDeployment(e.Subscribers, e.Resources)
	}
	return e.dep
}

// observe reports a service-primitive execution at a subscriber's SAP to
// the conformance observer, with params {resid: res}.
//
//repolint:hotpath
func (e *Env) observe(sub, primitive, res string) {
	_ = e.Observer.Observe(SubscriberSAP(sub), primitive, e.obsBuf.of(res)) //nolint:errcheck // violations surface via Observer.Err
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

// again is the middleware solutions' recovery policy: the done of every
// at-least-once call they make (svc.Port.CallRetry). A success ends the
// call. Under churn a transient failure goes again: the callee node is
// down (fail-fast, or the call interrupted by its crash), or the call
// timed out, which fires only when the profile sets a CallTimeout (no
// built-in one does). Any other failure, such as an application-level
// rejection no redelivery can fix, and fault-free every failure, is a
// deployment bug and panics. Redelivery is safe because every stamped
// submission is deduped at its receiver (resourceQueue.dup, and the
// grant and token Seq/Gen checks).
func (e *Env) again(err error) bool {
	switch {
	case err == nil:
		return false
	case e.Churn && (errors.Is(err, svc.ErrUnavailable) || errors.Is(err, svc.ErrTimeout)):
		return true
	}
	panic(fmt.Sprintf("floorcontrol: call failed: %v", err))
}

// acked returns again as the done of a void call, built once per run so
// a call allocates nothing for its policy.
func (e *Env) acked() func(ack, error) bool {
	if e.ackPolicy == nil {
		e.ackPolicy = func(_ ack, err error) bool { return e.again(err) }
	}
	return e.ackPolicy
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
	service, err := svc.New(runSpec)
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
	// sub and res are Sub's and Res's indices in the run's deployment
	// (-1 for a name outside it), set by deployment.decCtrlArgs.
	sub, res int32
}

// Wire layouts of the argument records. Seq is kept off the wire when
// zero, so each optional-field set compiles to its own record schema;
// the decoders read both shapes through the *Seq superset by slot.
var (
	recCtrl     = codec.CompileRecord(ParamResource, "subid")
	recCtrlSeq  = codec.CompileRecord(ParamResource, "seq", "subid")
	recGrant    = codec.CompileRecord(ParamResource)
	recGrantSeq = codec.CompileRecord(ParamResource, "seq")

	slotCtrlRes  = recCtrlSeq.Slot(ParamResource)
	slotCtrlSeq  = recCtrlSeq.Slot("seq")
	slotCtrlSub  = recCtrlSeq.Slot("subid")
	slotGrantRes = recGrantSeq.Slot(ParamResource)
	slotGrantSeq = recGrantSeq.Slot("seq")
)

// unknown reports a subscriber or resource outside the deployment, which
// no controller can serve.
func (a ctrlArgs) unknown() error {
	switch {
	case a.res < 0:
		return fmt.Errorf("floorcontrol: unknown resource %q", a.Res)
	case a.sub < 0:
		return fmt.Errorf("floorcontrol: unknown subscriber %q", a.Sub)
	}
	return nil
}

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

// decGrantArgs decodes a grant argument record, resolving its resid
// through the run's tables.
func (d *deployment) decGrantArgs(v codec.MsgView) (grantArgs, error) {
	var sl codec.Slots
	recGrantSeq.Resolve(&v, &sl)
	res, _ := sl.StrAt(slotGrantRes)
	seq, _ := sl.IntAt(slotGrantSeq)
	a := grantArgs{Seq: uint64(seq)}
	_, a.Res = d.resource(res)
	return a, nil
}

// ack is the empty acknowledgement reply of void operations.
type ack struct{}

// encAck appends the empty reply record of a void operation.
func encAck(buf []byte, _ ack) ([]byte, error) { return append(buf, codec.RawEmptyRecord...), nil }

// resourceQueue is the controller-side bookkeeping shared by the two
// asymmetric coordination styles: current holder and FIFO waiters, per
// resource, and the stamped submissions already processed. Subscribers
// and resources are held by their indices in the deployment d.
type resourceQueue struct {
	d       *deployment
	holder  []int32   // resource → holding subscriber (-1 = free)
	waiters [][]int32 // resource → FIFO of subscribers
	// seen holds each subscriber's processed Seqs, absorbing
	// at-least-once redelivery under churn (nil until the first stamped
	// submission). Retries can arrive after later fresh submissions from
	// the same subscriber (a limbo free redelivered after the next
	// cycle's request), so this must be an exact per-subscriber set — a
	// high-watermark would silently drop the reordered original.
	seen []map[uint64]struct{}
}

func newResourceQueue(d *deployment) *resourceQueue {
	q := &resourceQueue{d: d,
		holder:  make([]int32, len(d.res)),
		waiters: make([][]int32, len(d.res)),
	}
	for i := range q.holder {
		q.holder[i] = -1
	}
	return q
}

// decCtrlArgs decodes a controller argument record, resolving its resid
// and subid through the run's tables; absent or mistyped fields decode
// to zero values (index -1).
//
//repolint:hotpath
func (d *deployment) decCtrlArgs(v codec.MsgView) (ctrlArgs, error) {
	var sl codec.Slots
	recCtrlSeq.Resolve(&v, &sl)
	sub, _ := sl.StrAt(slotCtrlSub)
	res, _ := sl.StrAt(slotCtrlRes)
	seq, _ := sl.IntAt(slotCtrlSeq)
	a := ctrlArgs{Seq: uint64(seq)}
	a.sub, a.Sub = d.sub(sub)
	a.res, a.Res = d.resource(res)
	return a, nil
}

// dup reports whether (sub, seq) was already processed, recording fresh
// stamped submissions. Unstamped (fault-free) submissions never dedup.
func (q *resourceQueue) dup(sub int32, seq uint64) bool {
	if seq == 0 {
		return false
	}
	if q.seen == nil {
		q.seen = make([]map[uint64]struct{}, len(q.d.subs))
	}
	m := q.seen[sub]
	if m == nil {
		m = make(map[uint64]struct{})
		q.seen[sub] = m
	}
	if _, ok := m[seq]; ok {
		return true
	}
	m[seq] = struct{}{}
	return false
}

// tryAcquire grants res to sub if free, returning success.
func (q *resourceQueue) tryAcquire(sub, res int32) bool {
	if q.holder[res] >= 0 {
		return false
	}
	q.holder[res] = sub
	return true
}

// enqueue adds sub to the FIFO for res.
func (q *resourceQueue) enqueue(sub, res int32) {
	q.waiters[res] = append(q.waiters[res], sub)
}

// release frees res held by sub and pops the next waiter (who becomes the
// holder), returning the new holder and whether there is one. It returns
// an error when sub does not hold res — a protocol violation by the
// caller.
func (q *resourceQueue) release(sub, res int32) (int32, bool, error) {
	if h := q.holder[res]; h != sub {
		holder := ""
		if h >= 0 {
			holder = q.d.subs[h]
		}
		return -1, false, fmt.Errorf("floorcontrol: %q released %q held by %q", q.d.subs[sub], q.d.res[res], holder)
	}
	q.holder[res] = -1
	w := q.waiters[res]
	if len(w) == 0 {
		return -1, false, nil
	}
	next := w[0]
	q.waiters[res] = w[1:]
	q.holder[res] = next
	return next, true, nil
}
