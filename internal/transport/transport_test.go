package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"alohadb/internal/wire"
)

type ping struct{ N int }
type pong struct{ N int }

// Wire kinds of this package's test messages (the test range, >= 200).
const (
	kindPing wire.Kind = 200 + iota
	kindPong
	kindBlob
	kindHotPing
	kindHotPong
)

func init() {
	decN := func(b []byte) (int, error) {
		r := wire.NewReader(b)
		n := int(int64(r.Uvarint()))
		return n, r.Err()
	}
	wire.Register(kindPing, ping{},
		func(dst []byte, msg any) []byte { return binary.AppendUvarint(dst, uint64(msg.(ping).N)) },
		func(b []byte) (any, error) { n, err := decN(b); return ping{N: n}, err })
	wire.Register(kindPong, pong{},
		func(dst []byte, msg any) []byte { return binary.AppendUvarint(dst, uint64(msg.(pong).N)) },
		func(b []byte) (any, error) { n, err := decN(b); return pong{N: n}, err })
}

// echoHandler responds to ping{N} with pong{N+1} and errors on N < 0.
func echoHandler(_ context.Context, from NodeID, msg any) (any, error) {
	p, ok := msg.(ping)
	if !ok {
		return nil, fmt.Errorf("unexpected message %T", msg)
	}
	if p.N < 0 {
		return nil, errors.New("negative ping")
	}
	return pong{N: p.N + 1}, nil
}

// networks under test, constructed fresh per invocation.
func testNetworks(t *testing.T) map[string]func() Network {
	t.Helper()
	return map[string]func() Network{
		"mem": func() Network { return NewMemNetwork() },
		"mem-latency": func() Network {
			return NewMemNetwork(WithLatency(100*time.Microsecond, 50*time.Microsecond))
		},
		"tcp": func() Network {
			return NewTCPNetwork(map[NodeID]string{
				0: "127.0.0.1:0", 1: "127.0.0.1:0", 2: "127.0.0.1:0",
			})
		},
	}
}

func TestCallRoundTrip(t *testing.T) {
	for name, mk := range testNetworks(t) {
		t.Run(name, func(t *testing.T) {
			n := mk()
			defer n.Close()
			if _, err := n.Node(1, echoHandler); err != nil {
				t.Fatal(err)
			}
			c0, err := n.Node(0, echoHandler)
			if err != nil {
				t.Fatal(err)
			}
			if c0.Local() != 0 {
				t.Errorf("Local() = %d", c0.Local())
			}
			resp, err := c0.Call(context.Background(), 1, ping{N: 41})
			if err != nil {
				t.Fatal(err)
			}
			if got, ok := resp.(pong); !ok || got.N != 42 {
				t.Errorf("resp = %#v, want pong{42}", resp)
			}
		})
	}
}

func TestCallRemoteError(t *testing.T) {
	for name, mk := range testNetworks(t) {
		t.Run(name, func(t *testing.T) {
			n := mk()
			defer n.Close()
			if _, err := n.Node(1, echoHandler); err != nil {
				t.Fatal(err)
			}
			c0, err := n.Node(0, echoHandler)
			if err != nil {
				t.Fatal(err)
			}
			_, err = c0.Call(context.Background(), 1, ping{N: -1})
			if !errors.Is(err, ErrRemote) {
				t.Errorf("err = %v, want ErrRemote", err)
			}
		})
	}
}

func TestSendOneWay(t *testing.T) {
	for name, mk := range testNetworks(t) {
		t.Run(name, func(t *testing.T) {
			n := mk()
			defer n.Close()
			got := make(chan int, 1)
			if _, err := n.Node(1, func(_ context.Context, from NodeID, msg any) (any, error) {
				got <- msg.(ping).N
				return nil, nil
			}); err != nil {
				t.Fatal(err)
			}
			c0, err := n.Node(0, echoHandler)
			if err != nil {
				t.Fatal(err)
			}
			if err := c0.Send(context.Background(), 1, ping{N: 7}); err != nil {
				t.Fatal(err)
			}
			select {
			case v := <-got:
				if v != 7 {
					t.Errorf("received %d, want 7", v)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("one-way message never arrived")
			}
		})
	}
}

func TestUnknownNode(t *testing.T) {
	for name, mk := range testNetworks(t) {
		t.Run(name, func(t *testing.T) {
			n := mk()
			defer n.Close()
			c0, err := n.Node(0, echoHandler)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c0.Call(context.Background(), 99, ping{}); err == nil {
				t.Error("Call to unknown node should fail")
			}
			if err := c0.Send(context.Background(), 99, ping{}); err == nil {
				t.Error("Send to unknown node should fail")
			}
		})
	}
}

func TestDuplicateNode(t *testing.T) {
	n := NewMemNetwork()
	defer n.Close()
	if _, err := n.Node(0, echoHandler); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Node(0, echoHandler); !errors.Is(err, ErrNodeExists) {
		t.Errorf("err = %v, want ErrNodeExists", err)
	}
}

func TestConcurrentCalls(t *testing.T) {
	for name, mk := range testNetworks(t) {
		t.Run(name, func(t *testing.T) {
			n := mk()
			defer n.Close()
			if _, err := n.Node(1, echoHandler); err != nil {
				t.Fatal(err)
			}
			c0, err := n.Node(0, echoHandler)
			if err != nil {
				t.Fatal(err)
			}
			const calls = 64
			var wg sync.WaitGroup
			errs := make(chan error, calls)
			for i := 0; i < calls; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					resp, err := c0.Call(context.Background(), 1, ping{N: i})
					if err != nil {
						errs <- err
						return
					}
					if resp.(pong).N != i+1 {
						errs <- fmt.Errorf("call %d: response mismatch %v", i, resp)
					}
				}(i)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

func TestBidirectionalCalls(t *testing.T) {
	for name, mk := range testNetworks(t) {
		t.Run(name, func(t *testing.T) {
			n := mk()
			defer n.Close()
			var c0, c1 Conn
			var err error
			if c1, err = n.Node(1, echoHandler); err != nil {
				t.Fatal(err)
			}
			if c0, err = n.Node(0, echoHandler); err != nil {
				t.Fatal(err)
			}
			if _, err := c0.Call(context.Background(), 1, ping{N: 1}); err != nil {
				t.Fatal(err)
			}
			if _, err := c1.Call(context.Background(), 0, ping{N: 2}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// hopLatency is long enough that a cancel or a Close a few milliseconds
// after a Call started finds its message on the simulated wire.
const hopLatency = 20 * time.Millisecond

func slowMesh() Network { return NewMemNetwork(WithLatency(hopLatency, 0)) }

func tcpPair() Network {
	return NewTCPNetwork(map[NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"})
}

// TestCallContextCancel: a Call gives up when its context does, wherever the
// message is — in the remote handler (TCP), or on either hop of the mesh,
// where a request cancelled on the way out never reaches the handler.
func TestCallContextCancel(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mk      func() Network
		timeout time.Duration // 0: the handler cancels, so the reply finds the context done
		handled int32
	}{
		{"tcp/in-handler", tcpPair, 50 * time.Millisecond, 1},
		{"mem/outbound-hop", slowMesh, hopLatency / 4, 0},
		{"mem/return-hop", slowMesh, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.mk()
			defer n.Close()
			ctx, cancel := context.WithCancel(context.Background())
			want := context.Canceled
			if tc.timeout > 0 {
				ctx, cancel = context.WithTimeout(context.Background(), tc.timeout)
				want = context.DeadlineExceeded
			}
			defer cancel()
			var handled atomic.Int32
			if _, err := n.Node(1, func(context.Context, NodeID, any) (any, error) {
				handled.Add(1)
				if tc.timeout == 0 {
					cancel()
				} else {
					<-ctx.Done() // the test's context: TCP hands the handler one of its own
				}
				return pong{}, nil
			}); err != nil {
				t.Fatal(err)
			}
			c0, err := n.Node(0, echoHandler)
			if err != nil {
				t.Fatal(err)
			}
			if _, err = c0.Call(ctx, 1, ping{N: 1}); !errors.Is(err, want) {
				t.Errorf("err = %v, want %v", err, want)
			}
			time.Sleep(2 * hopLatency) // a request that was not dropped would have arrived by now
			if got := handled.Load(); got != tc.handled {
				t.Errorf("handler ran %d times, want %d", got, tc.handled)
			}
		})
	}
}

// TestCloseFailsPending: closing under a Call in flight fails it, on TCP and
// on either hop of the mesh; a mesh also drops the Sends it has not delivered.
func TestCloseFailsPending(t *testing.T) {
	for _, tc := range []struct {
		name      string
		mk        func() Network
		closeNet  bool // Close the network (mesh) or the caller's Conn (TCP)
		inHandler bool // Close once the handler has the request, not before
		handled   int32
	}{
		{"tcp/in-handler", tcpPair, false, true, 1},
		{"mem/outbound-hop", slowMesh, true, false, 0},
		{"mem/return-hop", slowMesh, true, true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.mk()
			defer n.Close()
			block := make(chan struct{})
			defer close(block)
			arrived := make(chan struct{}, 1)
			var handled, oneWay atomic.Int32
			if _, err := n.Node(1, func(_ context.Context, _ NodeID, msg any) (any, error) {
				if msg.(ping).N == 0 {
					oneWay.Add(1)
					return nil, nil
				}
				handled.Add(1)
				arrived <- struct{}{}
				if !tc.closeNet {
					<-block // TCP: hold the call in flight; the mesh's is held by the return hop
				}
				return pong{}, nil
			}); err != nil {
				t.Fatal(err)
			}
			c0, err := n.Node(0, echoHandler)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				_, err := c0.Call(context.Background(), 1, ping{N: 1})
				done <- err
			}()
			if tc.inHandler {
				<-arrived
			} else {
				time.Sleep(hopLatency / 4) // let the call get in flight
			}
			if tc.closeNet {
				if err := c0.Send(context.Background(), 1, ping{N: 0}); err != nil {
					t.Fatal(err)
				}
				err = n.Close()
			} else {
				err = c0.Close()
			}
			if err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-done:
				if err == nil || tc.closeNet && !errors.Is(err, ErrClosed) {
					t.Errorf("pending call: err = %v after Close, want ErrClosed", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("pending call hung after Close")
			}
			time.Sleep(2 * hopLatency) // anything not dropped would have arrived by now
			if got := handled.Load(); got != tc.handled {
				t.Errorf("handler ran %d times, want %d", got, tc.handled)
			}
			if got := oneWay.Load(); got != 0 {
				t.Errorf("%d one-way messages delivered after Close", got)
			}
		})
	}
}

// medianOf sorts ds in place.
func medianOf(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// TestMemLatencyDelaysCall holds the mesh to its configuration from both
// sides: no round trip is shorter than two one-way latencies, and from an
// otherwise idle process — where a time.Sleep per hop reads 2.2 ms — the
// median is under 1 ms. It reads 0.29–0.34 ms on a quiet box and at most
// 0.39 ms in 400 runs, half of them beside other packages' tests and half
// under -race; the bound leaves room for a slower shared runner. Where the
// line has only Go timers to sleep by (lineTimer) the upper bound does not
// apply.
func TestMemLatencyDelaysCall(t *testing.T) {
	const latency, jitter = 100 * time.Microsecond, 40 * time.Microsecond
	n := NewMemNetwork(WithLatency(latency, jitter))
	defer n.Close()
	if _, err := n.Node(1, echoHandler); err != nil {
		t.Fatal(err)
	}
	c0, err := n.Node(0, echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	rtts := make([]time.Duration, 200)
	for i := range rtts {
		start := time.Now()
		if _, err := c0.Call(context.Background(), 1, ping{N: 1}); err != nil {
			t.Fatal(err)
		}
		rtts[i] = time.Since(start)
	}
	n.Close() // the sleeper has exited: its timer can be asked
	median := medianOf(rtts)
	if rtts[0] < 2*latency {
		t.Errorf("shortest RTT %v < simulated %v", rtts[0], 2*latency)
	}
	if median >= time.Millisecond && n.line.timer.exact() {
		t.Errorf("median RTT %v for a configured %v–%v: the hop is rounded up to the scheduler's timer granularity", median, 2*latency, 2*(latency+jitter))
	}
	t.Logf("RTT min %v median %v max %v (kernel timer: %v)", rtts[0], median, rtts[len(rtts)-1], n.line.timer.exact())
}

// TestMemDelayNeverEarly files 6400 waits and one-way deliveries of random
// length, 64 at a time: each is released exactly once and never before it is
// due. The goroutines share one countdown so that 64 stay in flight to the
// end: the line does not cut a sleep short for a newcomer, so a lone short
// wait behind a lone long one is late by up to the spread of the delays —
// 40 µs on every mesh this repository configures, 1.95 ms here.
//
// How late is the line's doing plus the box's. Alone on a quiet box the
// median is 27–43 µs and p99 ~0.5 ms (EXPERIMENTS, "The simulated hop"), but
// with 64 of 6400 in flight a single stall of the box is the whole last
// percentile: p99 reads 1 ms or more in 38 runs of 100 on a quiet box and in
// 57 of 100 beside the other packages' tests under `go test ./...`, whatever
// the line does. So the tail is logged and the median is held under 500 µs:
// a sleeper on Go's timers reads 0.66–0.68 ms every time (a line that has
// only those to sleep by is not held to it), this one under 0.1 ms in 200
// quiet runs, half of them under -race. Beside other packages' tests on two
// processors one round in twenty reads 0.5–1.3 ms — the sleeper's thread is
// taken off its processor for a time slice — so a round over the bound is
// repeated, twice at most: the box's stalls do not repeat, the scheduler's
// rounding does.
func TestMemDelayNeverEarly(t *testing.T) {
	var p50 time.Duration
	for round := 0; round < 3; round++ {
		late, exact := neverEarlyRound(t)
		p50 = late[len(late)/2]
		t.Logf("lateness min %v p50 %v p99 %v max %v (kernel timer: %v)", late[0], p50, late[len(late)*99/100], late[len(late)-1], exact)
		if t.Failed() || !exact || p50 < 500*time.Microsecond {
			return
		}
	}
	t.Errorf("median lateness %v: releases are rounded up to the scheduler's timer granularity", p50)
}

// neverEarlyRound runs the 6400 messages over a line of its own, fails t if
// one is early, lost or doubled, and returns how late each was, sorted, and
// whether the line had a kernel timer to sleep by.
func neverEarlyRound(t *testing.T) (late []time.Duration, exact bool) {
	const goroutines, total = 64, 6400
	var line delayLine
	defer line.close()
	var delivered [total]atomic.Int32
	var next atomic.Int64
	late = make([]time.Duration, 0, total)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var mine []time.Duration
			fired := make(chan struct{}, 2) // room for a second, wrong, delivery
			for i := next.Add(1) - 1; i < total; i = next.Add(1) - 1 {
				d := 50*time.Microsecond + time.Duration(rng.Int63n(int64(1950*time.Microsecond)))
				slot := &delivered[i]
				start := time.Now()
				if i%2 == 0 {
					if err := line.wait(context.Background(), d); err != nil {
						t.Error(err)
						return
					}
					slot.Add(1)
				} else {
					line.after(d, func() { slot.Add(1); fired <- struct{}{} })
					<-fired
				}
				mine = append(mine, time.Since(start)-d)
			}
			mu.Lock()
			late = append(late, mine...)
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	if len(late) != total {
		t.Fatalf("%d of %d released", len(late), total)
	}
	time.Sleep(5 * time.Millisecond) // longer than any delay: a second release would have come
	// Closed, the sleeper has exited, and its timer can be asked.
	line.close()
	for i := range delivered {
		if got := delivered[i].Load(); got != 1 {
			t.Errorf("message %d released %d times", i, got)
		}
	}
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	if late[0] < 0 {
		t.Errorf("released %v before due", -late[0])
	}
	return late, line.timer.exact()
}

// TestMemNetworkCloseStopsLine: a mesh owns its delay line's goroutine only
// while it has messages to deliver — Close ends it with calls and sends in
// flight, and on a mesh nobody closes it is gone once the wire is empty.
func TestMemNetworkCloseStopsLine(t *testing.T) {
	settle := func(t *testing.T, baseline int) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > baseline {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines, baseline %d:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(time.Millisecond)
		}
	}
	inFlight := func(t *testing.T, n *MemNetwork, wantErr error) *sync.WaitGroup {
		t.Helper()
		if _, err := n.Node(1, echoHandler); err != nil {
			t.Fatal(err)
		}
		c0, err := n.Node(0, echoHandler)
		if err != nil {
			t.Fatal(err)
		}
		var calls sync.WaitGroup
		for i := 0; i < 8; i++ {
			calls.Add(1)
			go func() {
				defer calls.Done()
				if _, err := c0.Call(context.Background(), 1, ping{N: 1}); !errors.Is(err, wantErr) {
					t.Errorf("call: err = %v, want %v", err, wantErr)
				}
			}()
			if err := c0.Send(context.Background(), 1, ping{N: 1}); err != nil {
				t.Error(err)
			}
		}
		return &calls
	}
	t.Run("close", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		n := NewMemNetwork(WithLatency(hopLatency, 0))
		calls := inFlight(t, n, ErrClosed)
		time.Sleep(hopLatency / 4) // let the calls get in flight
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
		calls.Wait()
		settle(t, baseline)
	})
	t.Run("no-close", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		n := NewMemNetwork(WithLatency(100*time.Microsecond, 40*time.Microsecond))
		inFlight(t, n, nil).Wait()
		settle(t, baseline)
	})
}

// BenchmarkMemHop reports the median round trip of a Call over a mesh
// configured like the benchmark's (100 µs ± 40 µs each way), from one caller
// and from 64 at once. `make commit-guard` holds both under 700 µs.
func BenchmarkMemHop(b *testing.B) {
	for _, waiters := range []int{1, 64} {
		b.Run(fmt.Sprintf("waiters=%d", waiters), func(b *testing.B) {
			n := NewMemNetwork(WithLatency(100*time.Microsecond, 40*time.Microsecond))
			defer n.Close()
			if _, err := n.Node(1, echoHandler); err != nil {
				b.Fatal(err)
			}
			c0, err := n.Node(0, echoHandler)
			if err != nil {
				b.Fatal(err)
			}
			rtts := make([]time.Duration, b.N)
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := 0; w < waiters; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := next.Add(1) - 1; i < int64(len(rtts)); i = next.Add(1) - 1 {
						start := time.Now()
						if _, err := c0.Call(context.Background(), 1, ping{N: 1}); err != nil {
							b.Error(err)
							return
						}
						rtts[i] = time.Since(start)
					}
				}()
			}
			wg.Wait()
			b.ReportMetric(float64(medianOf(rtts))/1e3, "p50-rtt-us")
			b.ReportMetric(float64(rtts[len(rtts)*99/100])/1e3, "p99-rtt-us")
		})
	}
}

func TestMemConnCloseDetaches(t *testing.T) {
	n := NewMemNetwork()
	defer n.Close()
	c1, err := n.Node(1, echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	c0, err := n.Node(0, echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c0.Call(context.Background(), 1, ping{N: 1}); err == nil {
		t.Error("Call to detached node should fail")
	}
}

// TestSendQueueDepths exercises the QueueReporter surface: the TCP mesh
// reports per-peer outbound depths (zero on an idle link that has seen
// traffic), while the synchronous in-memory mesh does not implement it.
func TestSendQueueDepths(t *testing.T) {
	n := NewTCPNetwork(map[NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"})
	defer n.Close()
	qr, ok := any(n).(QueueReporter)
	if !ok {
		t.Fatal("TCPNetwork does not implement QueueReporter")
	}
	if _, err := n.Node(1, echoHandler); err != nil {
		t.Fatal(err)
	}
	c0, err := n.Node(0, echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c0.Call(context.Background(), 1, ping{N: 1}); err != nil {
		t.Fatal(err)
	}
	depths := qr.SendQueueDepths()
	// The call dialed 0->1 and the response dialed 1->0, so both peers
	// appear; queues have drained, so depths are zero.
	if d, ok := depths[1]; !ok || d != 0 {
		t.Errorf("depths[1] = %d, %v; want 0, true (map: %v)", d, ok, depths)
	}
	if _, ok := any(NewMemNetwork()).(QueueReporter); ok {
		t.Error("MemNetwork should not implement QueueReporter (synchronous delivery)")
	}
}
