package chaos

// Record turns the decision log on: from now on every decision drawn is
// kept, without bound.
func (n *Network) Record() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.recording = true
}

// Log returns a copy of the decision log (the fault schedule so far).
func (n *Network) Log() []Decision {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Decision, len(n.log))
	copy(out, n.log)
	return out
}
