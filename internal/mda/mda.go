// Package mda implements the paper's §6: the combined use of the
// protocol-centred and middleware-centred paradigms in a model-driven
// design trajectory with defined milestones.
//
// The trajectory's artifacts are executable, not just documents:
//
//   - A PIM (platform-independent service design, Figure 11) couples a
//     service definition (internal/core), platform-independent service
//     logic (Component implementations written against an abstract
//     messaging concept), and an AbstractPlatform definition — the set of
//     platform Concepts the logic relies on.
//   - A ConcretePlatform pairs a middleware profile with the Concepts it
//     provides (the leaves of Figure 10: CORBA-like and RMI-like under the
//     RPC-based class, JMS-like and MQ-like under asynchronous messaging).
//   - Realize performs *abstract-platform realization* (Figure 12): each
//     concept the abstract platform requires is matched against the
//     concrete platform; missing concepts are realized recursively through
//     adapter rules — "abstract-platform service logic" layered on the
//     concrete platform, with the abstract-platform definition functioning
//     as the service definition of the recursion.
//   - Deploy instantiates the PIM's logic on the realized platform,
//     yielding a running system whose service boundary is a core.Provider
//     — the PSI, executable and conformance-checkable.
//
// Directed messages travel as bytes, like PDUs: a message type is a
// protocol.PDU, and a Component reads each message it receives through a
// codec.MsgView valid until OnMessage returns.
package mda

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/middleware"
)

// Concept names a platform capability that platform-independent models may
// rely on and platforms may provide. Concepts are the currency of
// platform-independence: "for each concept represented in a
// platform-independent model, there should be a corresponding concept or a
// corresponding combination of concepts in the target platform" (§6).
type Concept string

// The concept vocabulary.
const (
	// ConceptSyncInvocation is request/response remote invocation.
	ConceptSyncInvocation Concept = "sync-invocation"
	// ConceptAsyncMessage is directed, fire-and-forget message passing to
	// a named component.
	ConceptAsyncMessage Concept = "async-message"
	// ConceptQueueing is store-and-forward named queues.
	ConceptQueueing Concept = "queueing"
	// ConceptEventChannel is publish/subscribe event distribution.
	ConceptEventChannel Concept = "event-channel"
)

// AbstractPlatform is the abstract-platform definition of Figure 11: the
// concepts the platform-independent service logic is written against. "The
// choice of abstract platform definition must consider the portability
// requirements since it will define the characteristics of the platform
// upon which service components may rely."
type AbstractPlatform struct {
	Name     string
	Requires []Concept
}

// ConcretePlatform is an available reusable platform: a middleware profile
// plus the concepts it provides directly.
type ConcretePlatform struct {
	Name string
	// Class is the platform class in the Figure 10 trajectory tree:
	// "rpc-based" or "async-messaging".
	Class    string
	Profile  middleware.Profile
	Provides []Concept
}

// provides reports whether the platform offers c directly.
func (p ConcretePlatform) provides(c Concept) bool {
	for _, x := range p.Provides {
		if x == c {
			return true
		}
	}
	return false
}

// ConcretePlatforms returns the four concrete platforms of the Figure 10
// trajectory.
func ConcretePlatforms() []ConcretePlatform {
	return []ConcretePlatform{
		{
			Name:     middleware.ProfileCORBALike.Name,
			Class:    "rpc-based",
			Profile:  middleware.ProfileCORBALike,
			Provides: []Concept{ConceptSyncInvocation, ConceptAsyncMessage, ConceptEventChannel},
		},
		{
			Name:     middleware.ProfileRMILike.Name,
			Class:    "rpc-based",
			Profile:  middleware.ProfileRMILike,
			Provides: []Concept{ConceptSyncInvocation},
		},
		{
			Name:     middleware.ProfileJMSLike.Name,
			Class:    "async-messaging",
			Profile:  middleware.ProfileJMSLike,
			Provides: []Concept{ConceptAsyncMessage, ConceptQueueing, ConceptEventChannel},
		},
		{
			Name:     middleware.ProfileMQLike.Name,
			Class:    "async-messaging",
			Profile:  middleware.ProfileMQLike,
			Provides: []Concept{ConceptQueueing},
		},
	}
}

// ConcretePlatformByName looks a predefined concrete platform up.
func ConcretePlatformByName(name string) (ConcretePlatform, bool) {
	for _, p := range ConcretePlatforms() {
		if p.Name == name {
			return p, true
		}
	}
	return ConcretePlatform{}, false
}

// AdapterRule declares that one concept can be realized on top of others —
// the knowledge base behind recursive abstract-platform realization.
type AdapterRule struct {
	// Realizes is the concept the adapter provides.
	Realizes Concept
	// Using lists the concepts the adapter itself relies on (the
	// recursion: these may in turn need adapters).
	Using []Concept
	// Name identifies the adapter ("async-over-sync").
	Name string
	// Description explains the mechanism for documentation output.
	Description string
	// WireCost is the number of wire messages one adapted logical message
	// costs, for planning documentation (measured costs come from runs).
	WireCost int
}

// DefaultRules is the built-in adapter knowledge base.
func DefaultRules() []AdapterRule {
	return []AdapterRule{
		{
			Realizes:    ConceptAsyncMessage,
			Using:       []Concept{ConceptSyncInvocation},
			Name:        "async-over-sync",
			Description: "directed message sent as a synchronous void invocation; the reply is discarded",
			WireCost:    2,
		},
		{
			Realizes:    ConceptAsyncMessage,
			Using:       []Concept{ConceptQueueing},
			Name:        "async-over-queue",
			Description: "one queue per target component; send enqueues, the target consumes",
			WireCost:    2,
		},
		{
			Realizes:    ConceptSyncInvocation,
			Using:       []Concept{ConceptAsyncMessage},
			Name:        "sync-over-async",
			Description: "request/response correlation identifiers over two directed messages",
			WireCost:    2,
		},
		{
			Realizes:    ConceptEventChannel,
			Using:       []Concept{ConceptAsyncMessage},
			Name:        "events-over-async",
			Description: "subscription registry component fanning events out as directed messages",
			WireCost:    2,
		},
	}
}

// AdapterUse records one adapter selected during realization, with the
// concept chain that justified it.
type AdapterUse struct {
	Rule AdapterRule
	// For is the required concept this use (possibly transitively)
	// supports.
	For Concept
	// Depth is the recursion depth (1 = directly bridging a required
	// concept).
	Depth int
}

// Realization is the outcome of matching an abstract platform against a
// concrete platform.
type Realization struct {
	Abstract AbstractPlatform
	Concrete ConcretePlatform
	// Direct is true when every required concept is provided natively
	// ("this may be straightforward when the selected platform conforms
	// (directly) to the abstract platform definition", §6).
	Direct bool
	// Adapters lists the abstract-platform service logic synthesized by
	// the recursion, in resolution order.
	Adapters []AdapterUse
}

// ErrUnrealizable is returned when no adapter chain can bridge a required
// concept.
var ErrUnrealizable = errors.New("mda: abstract platform not realizable on concrete platform")

// Realize matches the abstract-platform definition with a concrete
// platform definition (Figure 12). Missing concepts are bridged with
// adapter rules, recursively: an adapter's own requirements are resolved
// the same way, with the abstract-platform definition functioning as
// service definition for the recursion. A cycle or an unbridgeable concept
// yields ErrUnrealizable.
func Realize(abstract AbstractPlatform, concrete ConcretePlatform, rules []AdapterRule) (Realization, error) {
	r := Realization{Abstract: abstract, Concrete: concrete, Direct: true}
	for _, need := range abstract.Requires {
		if err := realizeConcept(need, need, concrete, rules, 1, map[Concept]bool{}, &r); err != nil {
			return Realization{}, err
		}
	}
	return r, nil
}

func realizeConcept(need, root Concept, concrete ConcretePlatform, rules []AdapterRule, depth int, visiting map[Concept]bool, r *Realization) error {
	if concrete.provides(need) {
		return nil
	}
	if visiting[need] {
		return fmt.Errorf("%w: concept %q is cyclically dependent", ErrUnrealizable, need)
	}
	visiting[need] = true
	defer delete(visiting, need)
	for _, rule := range rules {
		if rule.Realizes != need {
			continue
		}
		ok := true
		for _, dep := range rule.Using {
			if err := realizeConcept(dep, root, concrete, rules, depth+1, visiting, r); err != nil {
				ok = false
				break
			}
		}
		if ok {
			r.Direct = false
			r.Adapters = append(r.Adapters, AdapterUse{Rule: rule, For: root, Depth: depth})
			return nil
		}
	}
	return fmt.Errorf("%w: no adapter realizes %q on %q", ErrUnrealizable, need, concrete.Name)
}

// Describe renders the realization for documentation output.
func (r Realization) Describe() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "abstract platform %q on concrete platform %q (%s class)\n",
		r.Abstract.Name, r.Concrete.Name, r.Concrete.Class)
	if r.Direct {
		sb.WriteString("  direct: concrete platform conforms to the abstract platform definition\n")
		return sb.String()
	}
	sb.WriteString("  recursive service design (abstract-platform service logic):\n")
	for _, a := range r.Adapters {
		fmt.Fprintf(&sb, "    [depth %d, for %s] %s: %s (wire cost ×%d)\n",
			a.Depth, a.For, a.Rule.Name, a.Rule.Description, a.Rule.WireCost)
	}
	return sb.String()
}

// Milestone names the design-trajectory milestones of §6.
type Milestone string

// Milestones in trajectory order (Figure 11 and the §6 list).
const (
	MilestoneServiceDefinition   Milestone = "service-definition"
	MilestonePIServiceDesign     Milestone = "platform-independent-service-design"
	MilestonePlatformSelection   Milestone = "platform-selection"
	MilestoneAbstractRealization Milestone = "abstract-platform-realization"
	MilestonePSI                 Milestone = "platform-specific-implementation"
)

// TrajectoryStep is one milestone with its artifact description.
type TrajectoryStep struct {
	Milestone Milestone
	Detail    string
}

// PlanTrajectory lays out the milestones for realizing pim on target,
// returning the steps and the realization decision. It fails when the
// service definition is invalid or the abstract platform is unrealizable —
// design errors caught at the design level, before any deployment.
func PlanTrajectory(pim *PIM, target ConcretePlatform) ([]TrajectoryStep, Realization, error) {
	if err := pim.Validate(); err != nil {
		return nil, Realization{}, fmt.Errorf("mda: invalid PIM: %w", err)
	}
	real, err := Realize(pim.Abstract, target, DefaultRules())
	if err != nil {
		return nil, Realization{}, err
	}
	steps := []TrajectoryStep{
		{MilestoneServiceDefinition, fmt.Sprintf("service %q: %d primitives, %d constraints (middleware-platform-independent and paradigm-independent)",
			pim.Service.Name, len(pim.Service.Primitives), len(pim.Service.Constraints))},
		{MilestonePIServiceDesign, fmt.Sprintf("service logic %q against abstract platform %q requiring %v",
			pim.Name, pim.Abstract.Name, pim.Abstract.Requires)},
		{MilestonePlatformSelection, fmt.Sprintf("target %q (%s class)", target.Name, target.Class)},
	}
	if real.Direct {
		steps = append(steps, TrajectoryStep{MilestoneAbstractRealization,
			"direct: concrete platform conforms to the abstract-platform definition"})
	} else {
		names := make([]string, len(real.Adapters))
		for i, a := range real.Adapters {
			names[i] = a.Rule.Name
		}
		steps = append(steps, TrajectoryStep{MilestoneAbstractRealization,
			fmt.Sprintf("recursive: abstract-platform service logic %v", names)})
	}
	steps = append(steps, TrajectoryStep{MilestonePSI,
		fmt.Sprintf("deployable service %q on %q", pim.Service.Name, target.Profile.Name)})
	return steps, real, nil
}

// Validate checks the PIM's internal consistency.
func (p *PIM) Validate() error {
	if p == nil {
		return errors.New("mda: nil PIM")
	}
	if p.Name == "" {
		return errors.New("mda: PIM must be named")
	}
	if p.Service == nil {
		return fmt.Errorf("mda: PIM %q has no service definition", p.Name)
	}
	if err := p.Service.Validate(); err != nil {
		return fmt.Errorf("mda: PIM %q service: %w", p.Name, err)
	}
	if len(p.Abstract.Requires) == 0 {
		return fmt.Errorf("mda: PIM %q abstract platform requires no concepts", p.Name)
	}
	if p.Build == nil {
		return fmt.Errorf("mda: PIM %q has no logic builder", p.Name)
	}
	return nil
}

// PIM is a platform-independent service design (Figure 11): service
// definition + platform-independent service logic + abstract-platform
// definition.
type PIM struct {
	Name     string
	Service  *core.ServiceSpec
	Abstract AbstractPlatform
	// Build instantiates the service logic for a deployment plan.
	Build func(plan Plan) (*Logic, error)
}

// Plan describes the deployment a PIM is instantiated for.
type Plan struct {
	// SAPs are the service access points the deployment serves.
	SAPs []core.SAP
	// NodeOf maps each SAP to its hosting node; nil defaults to the SAP ID.
	NodeOf func(core.SAP) middleware.Addr
}

// nodeOf resolves the hosting node of a SAP.
func (p Plan) nodeOf(sap core.SAP) middleware.Addr {
	if p.NodeOf != nil {
		return p.NodeOf(sap)
	}
	return middleware.Addr(sap.ID)
}
