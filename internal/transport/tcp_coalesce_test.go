package transport

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPendingCallsFailOnCleanEOF is the regression test for the dropPeer
// precedence bug: a peer that reads our request and then closes the
// connection cleanly (io.EOF, conn not locally closed) must fail the
// pending Call promptly instead of leaving it hung forever.
func TestPendingCallsFailOnCleanEOF(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Fake peer: accept, swallow the request bytes, hang up cleanly.
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, 1<<16)
		conn.Read(buf) // wait for the request to start arriving
		time.Sleep(10 * time.Millisecond)
		conn.Close() // clean FIN: the requester sees io.EOF
	}()
	n := NewTCPNetwork(map[NodeID]string{0: "127.0.0.1:0", 1: ln.Addr().String()})
	defer n.Close()
	c0, err := n.Node(0, echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c0.Call(context.Background(), 1, ping{N: 1})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("Call to a peer that hung up should fail")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Call hung after the peer closed the connection cleanly")
	}
}

// TestCallsCoalesceSocketWrites asserts the tentpole property: a burst of
// width concurrent Calls over one peer connection reaches the socket in
// far fewer Write calls than envelopes. The responder runs on its own
// mesh so the requester-side socket-write counter covers only the
// request direction.
func TestCallsCoalesceSocketWrites(t *testing.T) {
	respNet := NewTCPNetwork(map[NodeID]string{1: "127.0.0.1:0"})
	defer respNet.Close()
	if _, err := respNet.Node(1, echoHandler); err != nil {
		t.Fatal(err)
	}
	reqNet := NewTCPNetwork(map[NodeID]string{0: "127.0.0.1:0", 1: respNet.Addr(1)})
	defer reqNet.Close()
	c0, err := reqNet.Node(0, echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	const (
		bursts = 20
		width  = 64
	)
	burst := func() {
		t.Helper()
		var wg sync.WaitGroup
		for i := 0; i < width; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, err := c0.Call(context.Background(), 1, ping{N: i}); err != nil {
					t.Error(err)
				}
			}(i)
		}
		wg.Wait()
	}
	burst() // warm up: dial, ship the preambles
	w0 := reqNet.NetMetrics().SocketWrites()
	for b := 0; b < bursts; b++ {
		burst()
	}
	writes := reqNet.NetMetrics().SocketWrites() - w0
	envelopes := uint64(bursts * width)
	if writes*4 > envelopes {
		t.Errorf("socket writes = %d for %d envelopes; want at least 4x coalescing", writes, envelopes)
	}
}

// TestInboundWorkerPoolLiveness proves the bounded pool spills under
// saturation: with a 4-worker pool, 32 concurrent requests whose handlers
// all block until every one of them has started can only complete if
// requests beyond the pool capacity still get goroutines. If dispatch
// parked them behind the busy workers, the count would never be reached
// and the calls would deadlock.
func TestInboundWorkerPoolLiveness(t *testing.T) {
	const calls = 32
	var started atomic.Int64
	allIn := make(chan struct{})
	h := func(_ context.Context, _ NodeID, msg any) (any, error) {
		if started.Add(1) == calls {
			close(allIn)
		}
		select {
		case <-allIn:
		case <-time.After(5 * time.Second):
			return nil, fmt.Errorf("handler timed out waiting for peers")
		}
		return pong{N: msg.(ping).N}, nil
	}
	n := NewTCPNetwork(map[NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"})
	n.inboundWorkers = 4
	defer n.Close()
	if _, err := n.Node(1, h); err != nil {
		t.Fatal(err)
	}
	c0, err := n.Node(0, echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c0.Call(context.Background(), 1, ping{N: i}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("calls deadlocked: saturated worker pool did not spill")
	}
}

func benchTCPPair(b *testing.B) Conn {
	b.Helper()
	n := NewTCPNetwork(map[NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"})
	b.Cleanup(func() { n.Close() })
	if _, err := n.Node(1, echoHandler); err != nil {
		b.Fatal(err)
	}
	c0, err := n.Node(0, echoHandler)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c0.Call(context.Background(), 1, ping{N: 0}); err != nil {
		b.Fatal(err)
	}
	return c0
}

func BenchmarkTCPCall(b *testing.B) {
	c0 := benchTCPPair(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c0.Call(ctx, 1, ping{N: i}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTCPCallParallel(b *testing.B) {
	c0 := benchTCPPair(b)
	ctx := context.Background()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := c0.Call(ctx, 1, ping{N: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
