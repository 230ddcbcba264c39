package middleware

// Test hooks for the external test package (fuzzing the wire entry
// point through the typed façade, which this package cannot import).

// HandleWire feeds one raw wire message to the platform runtime at node,
// as if it had arrived there from src over the name-addressed path.
func (p *Platform) HandleWire(src, node Addr, data []byte) {
	p.mu.Lock()
	id, ok := p.nodes[node]
	p.mu.Unlock()
	if !ok {
		panic("middleware: HandleWire on an unattached node")
	}
	p.handleWire(src, -1, id, data)
}
