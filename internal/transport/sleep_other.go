//go:build !linux

package transport

import "time"

// lineTimer is what a delay line's sleeper sleeps on. Without a kernel timer
// the runtime's poller can wait on it is a Go timer: never early, and on an
// idle scheduler rounded up to the millisecond.
type lineTimer struct{}

func (lineTimer) sleepUntil(at time.Time) { time.Sleep(time.Until(at)) }
func (lineTimer) close()                  {}
