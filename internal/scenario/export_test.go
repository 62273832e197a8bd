package scenario

// Find returns the named scenario, or nil.
func (r *Registry) Find(name string) *Scenario {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byName[name]
}
