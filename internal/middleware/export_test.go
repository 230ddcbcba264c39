package middleware

// Test hooks for the external test package (fuzzing the wire entry
// point through the typed façade, which this package cannot import).

// HandleWire feeds one raw wire message to the platform runtime at node,
// as if it had arrived there from the runtime at src. Both nodes must be
// attached.
func (p *Platform) HandleWire(src, node Addr, data []byte) {
	p.mu.Lock()
	srcID, srcOK := p.nodes[src]
	id, ok := p.nodes[node]
	var srcLow int32
	if srcOK {
		srcLow = p.nodeLows[srcID]
	}
	p.mu.Unlock()
	if !ok {
		panic("middleware: HandleWire on an unattached node")
	}
	if !srcOK {
		panic("middleware: HandleWire from an unattached node")
	}
	p.handleWire(srcLow, id, data)
}
