//go:build !linux

package transport

// exact reports whether sleeps end on the microsecond on an idle scheduler
// too.
func (lineTimer) exact() bool { return false }
