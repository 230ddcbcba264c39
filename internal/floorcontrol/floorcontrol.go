// Package floorcontrol implements the paper's running example (§4): "the
// floor-control problem", in which "several application parts share a set
// of named resources [that] can only be used by a single application part
// at a time".
//
// The package contains:
//
//   - the floor-control *service definition* (Figure 5): primitives
//     request/granted/free with the paper's two local constraints and one
//     remote constraint, and the safety LTS compiled from them;
//   - the three middleware-centred solutions of Figure 4 — (a)
//     callback-based, (b) polling-based, (c) token-based — built on the
//     internal/middleware component platform;
//   - the three protocol-centred solutions of Figure 6 — the same three
//     coordination styles as explicit protocols over a reliable-datagram
//     lower service, exposed to user parts through the floor-control
//     service boundary (core.Provider);
//   - a workload driver that executes any solution under an identical
//     acquire/hold/release load, verifying service conformance online and
//     measuring the wire and latency footprint (the quantitative form of
//     the paper's §5 comparison).
package floorcontrol

import (
	"repro/examples/specs"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/lts"
	"repro/internal/sdl"
)

// RoleSubscriber is the single role of the floor-control service.
const RoleSubscriber = "subscriber"

// Primitive names of the floor-control service (Figure 5).
const (
	PrimRequest = "request"
	PrimGranted = "granted"
	PrimFree    = "free"
)

// ParamResource is the resource-identification parameter carried by every
// primitive.
const ParamResource = "resid"

// specDoc is the floor-control service definition of Figure 5, parsed
// once from its one source, examples/specs/floorcontrol.svc:
//
//	request (ResourceId resid);   from-user
//	granted (ResourceId resid);   to-user
//	free    (ResourceId resid);   from-user
//	occur @ SAP subscriber_id
//
// with the paper's constraints: granted eventually follows request
// (local), free follows granted (local), and a resource is only granted to
// one subscriber at a time (remote).
var specDoc = sdl.MustParse(specs.FloorControl)

// Spec returns the floor-control service definition (see specDoc),
// compiled afresh on every call so callers may adjust their copy.
func Spec() *core.ServiceSpec {
	spec, _ := specDoc.Compile() //nolint:errcheck // MustParse compiled it once already
	return spec
}

// runSpec is the service definition every run observes and binds its
// middleware service to. Nothing in a run writes to a ServiceSpec, so
// runs share this one compile read-only.
var runSpec = Spec()

// sapParams is the parameter record every floor-control primitive carries
// across the SAP, {resid}, in the layout the service definition declares.
// Every record that names a resource — params, grants, PDUs — reads it
// through slotResid.
var (
	sapParams = func() *codec.Schema {
		p, _ := runSpec.Primitive(PrimRequest)
		return p.Schema()
	}()
	slotResid = sapParams.Slot(ParamResource)
)

// paramBuf is a scratch buffer its owner encodes primitive params into
// (the sapParams layout). Every owner keeps its own: the params are lent
// to one SAP call, and the owner's next call reuses the bytes.
type paramBuf []byte

// of encodes the params {resid: res}.
func (b *paramBuf) of(res string) []byte {
	e := sapParams.Encoder((*b)[:0])
	e.Str(ParamResource, res)
	*b, _ = e.Finish() //nolint:errcheck // a string field always encodes
	return *b
}

// waiter is one outstanding acquire: the resource, the completion to run
// and the Seq of the request it belongs to (zero fault-free), so
// duplicate grants from churn retries can be discarded.
type waiter struct {
	res  string
	done func()
	seq  uint64
}

// waiters is an owner's outstanding acquires keyed by resource: a list
// scanned in place of a map. A cooperative subscriber has at most one
// acquire outstanding (AppPart), so the list holds at most one entry.
type waiters []waiter

// find returns the index of res's entry, or -1.
func (w waiters) find(res string) int {
	for i := range w {
		if w[i].res == res {
			return i
		}
	}
	return -1
}

// put records x, replacing the entry for its resource.
func (w *waiters) put(x waiter) {
	if i := w.find(x.res); i >= 0 {
		(*w)[i] = x
		return
	}
	*w = append(*w, x)
}

// remove deletes entry i.
func (w *waiters) remove(i int) {
	s := *w
	last := len(s) - 1
	s[i] = s[last]
	s[last] = waiter{}
	*w = s[:last]
}

// deployment holds a run's name tables: the subscriber and resource ids
// by dense index, and the index of each. Run state is kept in slices by
// these indices. A name read off the wire, a PDU's or a call's subid or
// resid, is resolved once per message here, and what comes back is the
// table's own string, so resolving allocates nothing.
type deployment struct {
	subs, res      []string
	subIdx, resIdx map[string]int32
}

func newDeployment(subs, res []string) *deployment {
	return &deployment{subs: subs, res: res, subIdx: indexOf(subs), resIdx: indexOf(res)}
}

// indexOf maps each name to its position.
func indexOf(names []string) map[string]int32 {
	m := make(map[string]int32, len(names))
	for i, n := range names {
		m[n] = int32(i)
	}
	return m
}

// lookup resolves name bytes through one of the tables: the index and the
// table's string, or -1 and a copy for a name outside the deployment.
//
//repolint:hotpath
func lookup(idx map[string]int32, names []string, b []byte) (int32, string) {
	if i, ok := idx[string(b)]; ok { //repolint:allow strmap -- a wire name, resolved once per message
		return i, names[i]
	}
	return -1, string(b)
}

// sub resolves a subscriber id read off the wire.
func (d *deployment) sub(b []byte) (int32, string) { return lookup(d.subIdx, d.subs, b) }

// resource resolves a resource id read off the wire.
func (d *deployment) resource(b []byte) (int32, string) { return lookup(d.resIdx, d.res, b) }

// resOf resolves the resid of a params or grant record (-1 and "" when
// it has none).
func (d *deployment) resOf(v codec.MsgView) (int32, string) {
	var sl codec.Slots
	sapParams.Resolve(&v, &sl)
	b, _ := sl.StrAt(slotResid)
	return d.resource(b)
}

// resid resolves the resid of encoded params.
func (d *deployment) resid(params []byte) (int32, string) {
	var sl codec.Slots
	_ = sapParams.ParseRecord(params, &sl) //nolint:errcheck // malformed params have no resid
	b, _ := sl.StrAt(slotResid)
	return d.resource(b)
}

// SubscriberSAP names the SAP of one subscriber.
func SubscriberSAP(id string) core.SAP { return core.SAP{Role: RoleSubscriber, ID: id} }

// SafetyLTS compiles the floor-control service's safety constraints into
// the LTS of a concrete deployment (subscriber ids × resource ids): every
// constraint-respecting interleaving of request, granted and free.
// Recorded execution traces are checked against it — the formal
// assessment the paper asks for ("this can be assessed formally", §2).
//
// The state space is exponential in subscribers × resources; keep the
// deployment small (it is a specification artifact, not a runtime one).
func SafetyLTS(subscribers, resources []string) (*lts.LTS, error) {
	saps := make([]core.SAP, len(subscribers))
	for i, id := range subscribers {
		saps[i] = SubscriberSAP(id)
	}
	return runSpec.SafetyLTS("floor-control-service", saps, map[string][]string{ParamResource: resources})
}

// Scattering quantifies the paper's Figure 7: where does the interaction
// functionality of a solution live? Counts are *structural* — they count
// the coordination-specific operations (component operations, polling
// loops, token handling, PDU handlers) each solution implements, split by
// residence.
type Scattering struct {
	// AppPartOps counts interaction operations resident in each
	// subscriber's application part.
	AppPartOps int
	// ControllerOps counts interaction operations in a controller that is
	// itself an application part (middleware solutions only: "an
	// application part plays the role of a controller", §4.1).
	ControllerOps int
	// InteractionSystemOps counts operations inside the dedicated
	// interaction system (protocol entities behind the service boundary).
	InteractionSystemOps int
}

// Index returns the fraction of interaction functionality resident in
// application parts: 1.0 = fully scattered (middleware solutions),
// 0.0 = fully concentrated in the interaction system (protocol solutions).
func (s Scattering) Index() float64 {
	total := s.AppPartOps + s.ControllerOps + s.InteractionSystemOps
	if total == 0 {
		return 0
	}
	return float64(s.AppPartOps+s.ControllerOps) / float64(total)
}
