package netlink

// HandlePacket hands p to the station the way its engine's pump does, but
// on the caller's goroutine. The virtual-time pacing tests (pacing_test.go)
// run a receiver inside clock events, where a pump goroutine between the link and
// the station would let the clock move while a packet is being processed.
func (r *Receiver) HandlePacket(p []byte) { r.handlePacket(p) }
