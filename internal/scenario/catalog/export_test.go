package catalog

// N returns the number of observations.
func (l *LatencySample) N() int { return len(l.samples) }
