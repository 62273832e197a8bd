package transport

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"alohadb/internal/wire"
)

type blob struct{ Data []byte }

func init() {
	wire.Register(kindBlob, blob{},
		func(dst []byte, msg any) []byte { return wire.AppendBytes(dst, msg.(blob).Data) },
		func(b []byte) (any, error) {
			r := wire.NewReader(b)
			m := blob{Data: r.Bytes()}
			return m, r.Err()
		})
}

// TestLargePayloadOverTCP pushes a multi-megabyte frame through the
// wire protocol (epoch-batched installs can be large).
func TestLargePayloadOverTCP(t *testing.T) {
	n := NewTCPNetwork(map[NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"})
	defer n.Close()
	if _, err := n.Node(1, func(_ context.Context, from NodeID, msg any) (any, error) {
		b := msg.(blob)
		return blob{Data: b.Data}, nil // echo
	}); err != nil {
		t.Fatal(err)
	}
	c0, err := n.Node(0, echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 4<<20)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	resp, err := c0.Call(context.Background(), 1, blob{Data: payload})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.(blob).Data, payload) {
		t.Error("large payload corrupted in flight")
	}
}

// TestManyNodeMesh builds a 12-node mesh where every node calls every
// other node concurrently.
func TestManyNodeMesh(t *testing.T) {
	const nodes = 12
	addrs := make(map[NodeID]string, nodes)
	for i := 0; i < nodes; i++ {
		addrs[NodeID(i)] = "127.0.0.1:0"
	}
	for name, mk := range map[string]func() Network{
		"mem": func() Network { return NewMemNetwork() },
		"tcp": func() Network { return NewTCPNetwork(addrs) },
	} {
		t.Run(name, func(t *testing.T) {
			n := mk()
			defer n.Close()
			conns := make([]Conn, nodes)
			for i := 0; i < nodes; i++ {
				c, err := n.Node(NodeID(i), echoHandler)
				if err != nil {
					t.Fatal(err)
				}
				conns[i] = c
			}
			var wg sync.WaitGroup
			errs := make(chan error, nodes*nodes)
			for i := 0; i < nodes; i++ {
				for j := 0; j < nodes; j++ {
					if i == j {
						continue
					}
					wg.Add(1)
					go func(i, j int) {
						defer wg.Done()
						resp, err := conns[i].Call(context.Background(), NodeID(j), ping{N: i*100 + j})
						if err != nil {
							errs <- fmt.Errorf("%d->%d: %w", i, j, err)
							return
						}
						if resp.(pong).N != i*100+j+1 {
							errs <- fmt.Errorf("%d->%d: bad response", i, j)
						}
					}(i, j)
				}
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestSendFloodDoesNotDrop fires a burst of one-way messages and verifies
// every one arrives.
func TestSendFloodDoesNotDrop(t *testing.T) {
	const msgs = 2000
	for name, mk := range map[string]func() Network{
		"mem": func() Network { return NewMemNetwork() },
		"tcp": func() Network {
			return NewTCPNetwork(map[NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"})
		},
	} {
		t.Run(name, func(t *testing.T) {
			n := mk()
			defer n.Close()
			var mu sync.Mutex
			got := make(map[int]bool, msgs)
			done := make(chan struct{})
			if _, err := n.Node(1, func(_ context.Context, from NodeID, msg any) (any, error) {
				mu.Lock()
				got[msg.(ping).N] = true
				complete := len(got) == msgs
				mu.Unlock()
				if complete {
					close(done)
				}
				return nil, nil
			}); err != nil {
				t.Fatal(err)
			}
			c0, err := n.Node(0, echoHandler)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < msgs; i++ {
				if err := c0.Send(context.Background(), 1, ping{N: i}); err != nil {
					t.Fatal(err)
				}
			}
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				mu.Lock()
				t.Fatalf("received %d of %d one-way messages", len(got), msgs)
			}
		})
	}
}
