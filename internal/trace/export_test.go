package trace

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }
