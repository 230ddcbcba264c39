package middleware

// Test hooks for the external test package (fuzzing the wire entry
// point through the typed façade, which this package cannot import).

// HandleWire feeds one raw wire message to the platform runtime at node,
// as if it had arrived there from the runtime at src. Both nodes must be
// attached.
func (p *Platform) HandleWire(src, node Addr, data []byte) {
	srcID, srcOK := p.nodeID(src)
	id, ok := p.nodeID(node)
	if !ok {
		panic("middleware: HandleWire on an unattached node")
	}
	if !srcOK {
		panic("middleware: HandleWire from an unattached node")
	}
	p.handleWire(srcID, id, data)
}
