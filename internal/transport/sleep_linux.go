//go:build linux

package transport

import (
	"log"
	"os"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// lineTimer is what a delay line's sleeper sleeps on: a timerfd, a Linux
// timer that is a file. The file becomes readable when the timer expires, and
// because it is non-blocking a reader parks in the runtime's poller, where the
// expiry wakes an idle scheduler at once and busy processors find it when
// they look for work. (nanosleep on the goroutine's own thread is as exact,
// but every time it is entered the processor the goroutine ran on stays bound
// to the sleeping thread until the runtime's monitor takes it back, which
// costs a saturated cluster a quarter to a half of its throughput.) The zero
// value opens itself on first use; one goroutine at a time may sleep on it.
type lineTimer struct {
	f    *os.File
	conn syscall.RawConn
	// Why there is no timerfd, once it was refused: from then on the line
	// sleeps by time.Sleep — never early, a millisecond late when idle.
	err error
}

func (t *lineTimer) open() error {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return os.NewSyscallError("timerfd_create", errno)
	}
	f := os.NewFile(fd, "timerfd")
	conn, err := f.SyscallConn()
	if err != nil {
		f.Close()
		return err
	}
	t.f, t.conn = f, conn
	return nil
}

// close releases the descriptor; an os.File nobody closes is closed when it
// is collected.
func (t *lineTimer) close() {
	if t.f != nil {
		t.f.Close()
	}
}

var warnInexact sync.Once

// sleepUntil blocks until at.
func (t *lineTimer) sleepUntil(at time.Time) {
	if t.err == nil && t.f == nil {
		t.err = t.open()
	}
	if t.err == nil {
		if t.err = t.read(at); t.err == nil {
			return
		}
	}
	warnInexact.Do(func() {
		log.Printf("transport: the in-memory mesh sleeps by Go timers, which an idle scheduler rounds up to a millisecond per hop: %v", t.err)
	})
	time.Sleep(time.Until(at))
}

// read arms the timer for at and waits in the poller until it expires.
func (t *lineTimer) read(at time.Time) error {
	var errno syscall.Errno
	armed := false
	err := t.conn.Read(func(fd uintptr) bool {
		if armed {
			// Readable: the timer has expired. Nobody reads the count of
			// expirations; arming the timer again resets it.
			return true
		}
		// Armed in here, after the poller has forgotten what it knew of the
		// file's readiness, so that the expiry cannot come before it listens.
		d := time.Until(at)
		if d <= 0 {
			return true
		}
		// struct itimerspec: the interval of a periodic timer (none), then
		// the time to the first expiry.
		spec := [2]syscall.Timespec{1: syscall.NsecToTimespec(int64(d))}
		_, _, errno = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
		armed = errno == 0
		return !armed // armed: not readable yet, wait for the poller
	})
	if err == nil && errno != 0 {
		err = os.NewSyscallError("timerfd_settime", errno)
	}
	return err
}
