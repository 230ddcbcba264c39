package mda

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/middleware"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/svc"
)

// ComponentID identifies one instance of platform-independent service
// logic within a deployment, e.g. "controller" or "agent:s1".
type ComponentID string

// Component is platform-independent service logic. It reacts to abstract
// directed messages and — when bound to a SAP — to service primitives. It
// sends messages and delivers to-user primitives through its LogicContext,
// never touching a concrete platform API: that is what makes it
// platform-independent.
type Component interface {
	// Start runs once at deployment, before traffic.
	Start(ctx *LogicContext) error
	// OnMessage reacts to a directed message from another component. The
	// view borrows the delivery's bytes until OnMessage returns.
	OnMessage(from ComponentID, msg codec.MsgView) error
	// FromUser reacts to a from-user service primitive (SAP-bound
	// components only; others may reject).
	FromUser(primitive string, params codec.Record) error
}

// Logic is an instantiated set of components with placement and SAP
// bindings.
type Logic struct {
	// Components maps every instance to its implementation.
	Components map[ComponentID]Component
	// Placement assigns each instance a hosting node.
	Placement map[ComponentID]middleware.Addr
	// SAPBinding attaches SAPs to the component serving them.
	SAPBinding map[core.SAP]ComponentID
}

// LogicContext is a component's window on the deployment.
type LogicContext struct {
	dep  *Deployment
	self ComponentID
}

// Self returns the component's id.
func (c *LogicContext) Self() ComponentID { return c.self }

// Send transmits one msg carrying v from c's component to another
// component through the realized abstract platform. A directed message
// type is declared like a PDU type — a name and a record encoder — and
// its record is encoded into a pooled buffer the platform copies from.
func Send[T any](c *LogicContext, to ComponentID, msg protocol.PDU[T], v T) error {
	buf := codec.GetBuffer()
	defer buf.Release()
	fields, err := msg.AppendRecord(buf.B[:0], v)
	if err != nil {
		return fmt.Errorf("mda: encode message %q: %w", msg.Name(), err)
	}
	buf.B = fields
	return c.dep.send(c.self, to, msg.Name(), fields)
}

// DeliverToUser executes a to-user service primitive at the SAP bound to
// this component. It is a no-op without a binding or handler.
func (c *LogicContext) DeliverToUser(primitive string, params codec.Record) {
	c.dep.deliverToUser(c.self, primitive, params)
}

// Schedule runs fn after a virtual delay. The returned ref cancels
// without pinning a timer allocation; callers that do not need to
// cancel may discard it.
func (c *LogicContext) Schedule(d time.Duration, fn func()) sim.TimerRef {
	return c.dep.kern.ScheduleFuncRef(d, fn)
}

// messaging is the realized async-message concept: how directed messages
// actually travel on a given concrete platform — one typed send endpoint
// per target component, all carrying the same deliver envelope.
type messaging struct {
	// name identifies the realization for diagnostics.
	name  string
	sends map[ComponentID]sendFunc
}

// sendFunc transmits one deliver envelope from a hosting node.
type sendFunc func(middleware.Addr, wireEnvelope) error

// Deployment is a running PSI: the PIM's logic instantiated on a concrete
// platform. Its service boundary is a core.Provider. All middleware
// interactions of the deployed logic flow through the typed svc port
// binding — the raw platform surface stays an SPI underneath.
type Deployment struct {
	kern        *sim.Kernel
	platform    *middleware.Platform
	ports       *svc.Binding
	pim         *PIM
	realization Realization
	logic       *Logic
	messaging   *messaging

	// registered and queued make the endpoint installers idempotent, so
	// Rerealize can re-run them when migrating to a platform whose
	// realization needs endpoints the first deployment never installed.
	registered map[ComponentID]bool
	queued     map[ComponentID]bool

	mu      sync.Mutex
	sapOf   map[ComponentID]core.SAP
	binding map[core.SAP]ComponentID
	upcalls map[core.SAP]func(string, codec.Record)
}

var _ core.Provider = (*Deployment)(nil)

// Platform exposes the underlying middleware platform (for statistics).
func (d *Deployment) Platform() *middleware.Platform { return d.platform }

// Realization reports how the abstract platform was realized.
func (d *Deployment) Realization() Realization { return d.realization }

// MessagingName reports the active async-message realization
// ("native-oneway", "async-over-sync", "async-over-queue").
func (d *Deployment) MessagingName() string { return d.messaging.name }

// Submit implements core.Provider.
func (d *Deployment) Submit(sap core.SAP, primitive string, params codec.Record) error {
	d.mu.Lock()
	id, ok := d.binding[sap]
	d.mu.Unlock()
	if !ok {
		return fmt.Errorf("mda: SAP %s not bound", sap)
	}
	comp := d.logic.Components[id]
	if err := comp.FromUser(primitive, params); err != nil {
		return fmt.Errorf("mda: %s at %s: %w", primitive, sap, err)
	}
	return nil
}

// Attach implements core.Provider.
func (d *Deployment) Attach(sap core.SAP, handler func(string, codec.Record)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.upcalls[sap] = handler
}

func (d *Deployment) deliverToUser(id ComponentID, primitive string, params codec.Record) {
	d.mu.Lock()
	sap, ok := d.sapOf[id]
	var fn func(string, codec.Record)
	if ok {
		fn = d.upcalls[sap]
	}
	d.mu.Unlock()
	if fn != nil {
		fn(primitive, params)
	}
}

// send delivers the message name with its encoded field record from one
// component to another through the active realization.
func (d *Deployment) send(from, to ComponentID, name string, fields []byte) error {
	node, ok := d.logic.Placement[from]
	if !ok {
		return fmt.Errorf("mda: unplaced sender %q", from)
	}
	send, ok := d.messaging.sends[to]
	if !ok {
		return fmt.Errorf("mda: unknown target %q", to)
	}
	return send(node, wireEnvelope{From: from, Name: name, Fields: fields})
}

// onDelivered routes an inbound abstract message to its component; a
// message that does not parse is dropped.
func (d *Deployment) onDelivered(to ComponentID, in delivery) {
	comp, ok := d.logic.Components[to]
	if !ok {
		return
	}
	msg, err := codec.ParseMessage(in.msg)
	if err != nil {
		return
	}
	_ = comp.OnMessage(in.from, msg) //nolint:errcheck // component errors are design errors surfaced in tests
}

// Deploy realizes pim on the target platform over the given transport and
// instantiates its logic: milestones MilestoneAbstractRealization and
// MilestonePSI made executable.
func Deploy(kern *sim.Kernel, transport protocol.LowerService, pim *PIM, target ConcretePlatform, plan Plan) (*Deployment, error) {
	if kern == nil || transport == nil {
		return nil, errors.New("mda: Deploy requires a kernel and transport")
	}
	_, realization, err := PlanTrajectory(pim, target)
	if err != nil {
		return nil, err
	}
	logic, err := pim.Build(plan)
	if err != nil {
		return nil, fmt.Errorf("mda: build logic for %q: %w", pim.Name, err)
	}
	if err := validateLogic(logic, plan); err != nil {
		return nil, err
	}
	platform := middleware.New(kern, transport, target.Profile, "mda-broker")
	service, err := svc.New(pim.Service)
	if err != nil {
		return nil, fmt.Errorf("mda: declare service %q: %w", pim.Service.Name, err)
	}
	binding, err := service.Bind(platform)
	if err != nil {
		return nil, fmt.Errorf("mda: bind service %q: %w", pim.Service.Name, err)
	}
	d := &Deployment{
		kern:        kern,
		platform:    platform,
		ports:       binding,
		pim:         pim,
		realization: realization,
		logic:       logic,
		registered:  make(map[ComponentID]bool, len(logic.Components)),
		queued:      make(map[ComponentID]bool, len(logic.Components)),
		sapOf:       make(map[ComponentID]core.SAP, len(logic.SAPBinding)),
		binding:     make(map[core.SAP]ComponentID, len(logic.SAPBinding)),
		upcalls:     make(map[core.SAP]func(string, codec.Record)),
	}
	for sap, id := range logic.SAPBinding {
		d.binding[sap] = id
		d.sapOf[id] = sap
	}
	if err := d.installMessaging(target); err != nil {
		return nil, err
	}
	for _, id := range slices.Sorted(maps.Keys(logic.Components)) {
		if err := logic.Components[id].Start(&LogicContext{dep: d, self: id}); err != nil {
			return nil, fmt.Errorf("mda: start component %q: %w", id, err)
		}
	}
	return d, nil
}

func validateLogic(logic *Logic, plan Plan) error {
	if logic == nil || len(logic.Components) == 0 {
		return errors.New("mda: logic has no components")
	}
	// Sorted iteration, so an invalid logic is reported the same way on
	// every run.
	for _, id := range slices.Sorted(maps.Keys(logic.Components)) {
		if _, ok := logic.Placement[id]; !ok {
			return fmt.Errorf("mda: component %q has no placement", id)
		}
	}
	saps := slices.SortedFunc(maps.Keys(logic.SAPBinding), func(a, b core.SAP) int {
		return strings.Compare(a.String(), b.String())
	})
	for _, sap := range saps {
		id := logic.SAPBinding[sap]
		if _, ok := logic.Components[id]; !ok {
			return fmt.Errorf("mda: SAP %s bound to unknown component %q", sap, id)
		}
	}
	for _, sap := range plan.SAPs {
		if _, ok := logic.SAPBinding[sap]; !ok {
			return fmt.Errorf("mda: plan SAP %s not bound by logic", sap)
		}
	}
	return nil
}

// installMessaging selects and wires the async-message realization matching
// the concrete platform — the deployed form of the realization's adapters.
// Receive endpoints are installed first, then one typed send endpoint
// (sink or port) is built per target component. Every realization
// carries the same deliver envelope (encEnvelope/decEnvelope):
//
//   - native-oneway (CORBA-like oneway, JMS-like message passing): a
//     oneway sink to the component's deliver operation;
//   - async-over-sync (Figure 12 recursion on the RMI-like platform): a
//     synchronous void invocation whose reply is discarded;
//   - async-over-queue (Figure 12 recursion on the MQ-like platform): a
//     queue sink feeding the component's inbound queue.
func (d *Deployment) installMessaging(target ConcretePlatform) error {
	var (
		name    string
		install func() error
		newSend func(ComponentID) (sendFunc, error)
	)
	switch {
	case target.Profile.Supports(middleware.PatternOneway):
		name, install = "native-oneway", d.registerObjects
		newSend = func(id ComponentID) (sendFunc, error) {
			sink, err := svc.NewOnewaySink(d.ports, objRef(id), "deliver", encEnvelope)
			if err != nil {
				return nil, err
			}
			return sink.Send, nil
		}
	case target.Profile.Supports(middleware.PatternRPC):
		name, install = "async-over-sync", d.registerObjects
		newSend = func(id ComponentID) (sendFunc, error) {
			port, err := svc.NewPort[wireEnvelope, struct{}](d.ports, objRef(id), "deliver", encEnvelope, nil)
			if err != nil {
				return nil, err
			}
			return func(node middleware.Addr, env wireEnvelope) error { return port.Call(node, env, nil) }, nil
		}
	case target.Profile.Supports(middleware.PatternQueue):
		name, install = "async-over-queue", d.subscribeQueues
		newSend = func(id ComponentID) (sendFunc, error) {
			sink, err := svc.NewQueueSink(d.ports, queueName(id), queueMsgName, encEnvelope)
			if err != nil {
				return nil, err
			}
			return sink.Send, nil
		}
	default:
		return fmt.Errorf("%w: platform %q offers no usable pattern", ErrUnrealizable, target.Name)
	}
	if err := install(); err != nil {
		return err
	}
	m := &messaging{name: name, sends: make(map[ComponentID]sendFunc, len(d.logic.Components))}
	for _, id := range slices.Sorted(maps.Keys(d.logic.Components)) {
		send, err := newSend(id)
		if err != nil {
			return fmt.Errorf("mda: %s endpoint for %q: %w", name, id, err)
		}
		m.sends[id] = send
	}
	d.messaging = m
	return nil
}

// objRef names a component's middleware object.
func objRef(id ComponentID) middleware.ObjRef { return middleware.ObjRef("logic:" + string(id)) }

// queueName names a component's inbound queue in the queue realization.
func queueName(id ComponentID) string { return "mda.q." + string(id) }

// queueMsgName names the queue messages carrying deliver envelopes.
const queueMsgName = "mda.msg"

// wireEnvelope is the typed wire form of an abstract directed message:
// the sending component, the message name, and the encoded payload
// record, spliced in verbatim.
type wireEnvelope struct {
	From   ComponentID
	Name   string
	Fields []byte
}

// recEnvelope is the wire layout of the deliver operation's argument
// record.
var recEnvelope = codec.CompileRecord("fields", "from", "name")

// encEnvelope appends the deliver operation's argument record.
func encEnvelope(buf []byte, e wireEnvelope) ([]byte, error) {
	enc := recEnvelope.Encoder(buf)
	enc.Raw("fields", e.Fields)
	enc.Str("from", string(e.From))
	enc.Str("name", e.Name)
	return enc.Finish()
}

// delivery is one received directed message: the sending component and
// the message's wire form (name, then field record).
type delivery struct {
	from ComponentID
	msg  []byte
}

// decEnvelope decodes a deliver argument record, copying the message
// name and payload record out of the delivery buffer as bytes. A
// malformed name or payload yields a message onDelivered drops.
func decEnvelope(v codec.MsgView) (delivery, error) {
	from, _ := v.Str("from")
	name, _ := v.Raw("name")
	fields, _ := v.Raw("fields")
	msg := make([]byte, 0, len(name)+len(fields))
	msg = append(append(msg, name...), fields...)
	return delivery{from: ComponentID(from), msg: msg}, nil
}

// registerObjects hosts each component as a typed export exposing the
// generic deliver operation. Idempotent: components already hosted from
// an earlier realization are kept as they are.
func (d *Deployment) registerObjects() error {
	for id := range d.logic.Components {
		id := id
		if d.registered[id] {
			continue
		}
		e, err := d.ports.NewExport(objRef(id), d.logic.Placement[id])
		if err != nil {
			return fmt.Errorf("mda: register %q: %w", id, err)
		}
		err = svc.HandleOp(e, "deliver", decEnvelope, nil,
			func(in delivery, respond func(struct{}, error)) {
				respond(struct{}{}, nil)
				d.onDelivered(id, in)
			})
		if err != nil {
			return fmt.Errorf("mda: register %q: %w", id, err)
		}
		if err := e.Register(); err != nil {
			return fmt.Errorf("mda: register %q: %w", id, err)
		}
		d.registered[id] = true
	}
	return nil
}

// subscribeQueues declares and consumes one queue per component through
// typed queue sources. Idempotent, like registerObjects.
func (d *Deployment) subscribeQueues() error {
	for id := range d.logic.Components {
		id := id
		if d.queued[id] {
			continue
		}
		if err := d.ports.DeclareQueue(queueName(id)); err != nil {
			return fmt.Errorf("mda: declare queue for %q: %w", id, err)
		}
		_, err := svc.NewQueueSource(d.ports, queueName(id), d.logic.Placement[id],
			decEnvelope,
			func(in delivery) { d.onDelivered(id, in) })
		if err != nil {
			return fmt.Errorf("mda: subscribe queue for %q: %w", id, err)
		}
		d.queued[id] = true
	}
	return nil
}

// Rerealize migrates the running deployment onto a different concrete
// platform mid-run — the MDA trajectory replayed live: the platform
// profile is swapped, any endpoints the new realization needs are
// installed (existing ones are kept, the installers are idempotent), and
// directed messages switch to the new platform's async-message adapter.
// Interactions already in flight complete under the old realization;
// component state is untouched — this is a platform migration, not a
// redeployment.
func (d *Deployment) Rerealize(target ConcretePlatform) error {
	_, realization, err := PlanTrajectory(d.pim, target)
	if err != nil {
		return err
	}
	d.platform.SetProfile(target.Profile)
	if err := d.installMessaging(target); err != nil {
		return err
	}
	d.realization = realization
	return nil
}
