//go:build linux

package transport

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestLineTimerRefused: a line whose timerfd was refused sleeps by Go timers
// from then on — never early, nothing lost — and does not ask again.
func TestLineTimerRefused(t *testing.T) {
	refused := errors.New("timerfd_create: refused")
	line := delayLine{timer: lineTimer{err: refused}}
	const d = 200 * time.Microsecond
	for i := 0; i < 20; i++ {
		start := time.Now()
		if err := line.wait(context.Background(), d); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took < d {
			t.Fatalf("released after %v, due in %v", took, d)
		}
	}
	fired := make(chan struct{})
	line.after(d, func() { close(fired) })
	<-fired
	line.close()
	if line.timer.exact() || line.timer.f != nil || line.timer.err != refused {
		t.Errorf("timer after a refusal: exact %v, file %v, err %v", line.timer.exact(), line.timer.f, line.timer.err)
	}
}

// exact reports whether sleeps end on the microsecond on an idle scheduler
// too; meaningful once the timer has been slept on.
func (t *lineTimer) exact() bool { return t.err == nil }
