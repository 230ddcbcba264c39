package floorcontrol

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/protocol"
)

// serviceAppPart is THE application part of every protocol-centred
// solution. It is written once, against the floor-control service
// (core.Provider), and is reused unchanged by the callback, polling and
// token protocols — the executable form of the paper's §5 claim that "the
// design of the application is not influenced by the choice of a protocol
// solution (the presented protocol solutions provide the same service)".
type serviceAppPart struct {
	provider core.Provider
	sap      core.SAP
	names    *deployment
	params   paramBuf

	pending waiters // outstanding acquires
}

var _ AppPart = (*serviceAppPart)(nil)

// newServiceAppPart attaches the part to its SAP.
func newServiceAppPart(provider core.Provider, sap core.SAP, names *deployment) *serviceAppPart {
	p := &serviceAppPart{provider: provider, sap: sap, names: names}
	provider.Attach(sap, p.onPrimitive)
	return p
}

func (p *serviceAppPart) onPrimitive(primitive string, params []byte) {
	if primitive != PrimGranted {
		return
	}
	_, res := p.names.resid(params)
	i := p.pending.find(res)
	if i < 0 {
		return
	}
	done := p.pending[i].done
	p.pending.remove(i)
	if done != nil {
		done()
	}
}

// Acquire implements AppPart by executing the request primitive.
func (p *serviceAppPart) Acquire(res string, done func()) {
	p.pending.put(waiter{res: res, done: done})
	if err := p.provider.Submit(p.sap, PrimRequest, p.params.of(res)); err != nil {
		panic(fmt.Sprintf("floorcontrol: request at %s: %v", p.sap, err))
	}
}

// Release implements AppPart by executing the free primitive.
func (p *serviceAppPart) Release(res string) {
	if err := p.provider.Submit(p.sap, PrimFree, p.params.of(res)); err != nil {
		panic(fmt.Sprintf("floorcontrol: free at %s: %v", p.sap, err))
	}
}

// The PDUs of the three protocol solutions (Figure 6). Each carries the
// argument record of its middleware twin (Figure 5), so the protocol and
// middleware solutions share one wire shape per interaction.
var (
	pduRequest   = protocol.NewPDU("request", encCtrlArgs)
	pduFree      = protocol.NewPDU("free", encCtrlArgs)
	pduGranted   = protocol.NewPDU("granted", encGrantArgs)
	pduAvailReq  = protocol.NewPDU("is_available_req", encCtrlArgs)
	pduAvailResp = protocol.NewPDU("is_available_resp", encAvailReply)
	pduPass      = protocol.NewPDU("pass", encTokenArgs)
)

// buildProtocolSolution is the shared assembly for the three protocol
// solutions: create the layer, install entities, bind SAPs, wrap the
// service boundary with conformance observation, and hand every
// subscriber the same generic app part.
func buildProtocolSolution(env *Env, name string, install func(layer *protocol.Layer) error) (map[string]AppPart, error) {
	if env.Lower == nil {
		return nil, fmt.Errorf("floorcontrol: %s requires a lower-level service", name)
	}
	layer := protocol.NewLayer(name, env.Time, env.Lower)
	env.Layer = layer
	if err := install(layer); err != nil {
		return nil, err
	}
	binding := protocol.NewServiceBinding(layer)
	for _, sub := range env.Subscribers {
		if err := binding.Bind(SubscriberSAP(sub), protocol.Addr(sub)); err != nil {
			return nil, fmt.Errorf("floorcontrol: bind SAP %q: %w", sub, err)
		}
	}
	provider := env.Observer.Provider(binding)
	parts := make(map[string]AppPart, len(env.Subscribers))
	for _, sub := range env.Subscribers {
		parts[sub] = newServiceAppPart(provider, SubscriberSAP(sub), env.names())
	}
	return parts, nil
}
