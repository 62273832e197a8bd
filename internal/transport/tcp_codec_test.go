package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"alohadb/internal/wire"
)

// hotPing and hotPong carry a string and a counter, the shape of the
// engine's keyed messages.
type hotPing struct {
	Key string
	N   uint64
}

type hotPong struct {
	Key string
	N   uint64
}

// unregistered has no wire codec: the message a forgotten registration
// produces.
type unregistered struct{ N int }

func init() {
	enc := func(dst []byte, key string, n uint64) []byte {
		dst = wire.AppendString(dst, key)
		return binary.AppendUvarint(dst, n)
	}
	wire.Register(kindHotPing, hotPing{},
		func(dst []byte, msg any) []byte { m := msg.(hotPing); return enc(dst, m.Key, m.N) },
		func(b []byte) (any, error) {
			r := wire.NewReader(b)
			m := hotPing{Key: r.String(), N: r.Uvarint()}
			return m, r.Err()
		})
	wire.Register(kindHotPong, hotPong{},
		func(dst []byte, msg any) []byte { m := msg.(hotPong); return enc(dst, m.Key, m.N) },
		func(b []byte) (any, error) {
			r := wire.NewReader(b)
			m := hotPong{Key: r.String(), N: r.Uvarint()}
			return m, r.Err()
		})
}

// hotEchoHandler answers hotPing with hotPong (an error for key "fail", a
// reply nobody registered for key "bad-reply") and counts one-way pings.
func hotEchoHandler(oneways *atomic.Int64) Handler {
	return func(_ context.Context, from NodeID, msg any) (any, error) {
		switch m := msg.(type) {
		case hotPing:
			switch m.Key {
			case "fail":
				return nil, errors.New("requested failure")
			case "bad-reply":
				return unregistered{}, nil
			}
			return hotPong{Key: m.Key, N: m.N + 1}, nil
		case ping:
			if oneways != nil {
				oneways.Add(1)
			}
			return pong{N: m.N + 1}, nil
		default:
			return nil, fmt.Errorf("unexpected message %T", msg)
		}
	}
}

func TestTCPCodecMeshes(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		n := NewTCPNetwork(map[NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0", 2: "127.0.0.1:0"})
		defer n.Close()
		var oneways atomic.Int64
		conns := make([]Conn, 3)
		for id := NodeID(0); id < 3; id++ {
			c, err := n.Node(id, hotEchoHandler(&oneways))
			if err != nil {
				t.Fatal(err)
			}
			conns[id] = c
		}
		ctx := context.Background()
		// Every ordered pair calls every other node: requests and
		// responses cross every link of the mesh in both directions.
		for from := range conns {
			for to := range conns {
				if from == to {
					continue
				}
				resp, err := conns[from].Call(ctx, NodeID(to), hotPing{Key: "k", N: uint64(from)})
				if err != nil {
					t.Fatalf("%d->%d: %v", from, to, err)
				}
				if got, ok := resp.(hotPong); !ok || got.N != uint64(from)+1 || got.Key != "k" {
					t.Fatalf("%d->%d: resp = %#v", from, to, resp)
				}
				if _, err := conns[from].Call(ctx, NodeID(to), hotPing{Key: "fail"}); !errors.Is(err, ErrRemote) {
					t.Fatalf("%d->%d: handler error did not propagate: %v", from, to, err)
				}
				if err := conns[from].Send(ctx, NodeID(to), ping{N: 7}); err != nil {
					t.Fatalf("%d->%d send: %v", from, to, err)
				}
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for oneways.Load() < 6 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := oneways.Load(); got != 6 {
			t.Errorf("one-way deliveries = %d, want 6", got)
		}
	})
}

// TestTCPUnregisteredTypeFailsOnlyItsCall: a payload without a codec is
// what a forgotten registration produces, and over the in-memory mesh the
// same message works. It must fail the call that carries it, naming the
// type, and leave the link to every other caller — same connection before
// and after, no redial, no bystander failed.
func TestTCPUnregisteredTypeFailsOnlyItsCall(t *testing.T) {
	n := NewTCPNetwork(map[NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"})
	defer n.Close()
	if _, err := n.Node(1, hotEchoHandler(nil)); err != nil {
		t.Fatal(err)
	}
	c0, err := n.Node(0, hotEchoHandler(nil))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c0.Call(ctx, 1, hotPing{Key: "dial"}); err != nil {
		t.Fatal(err)
	}
	peer := func() *tcpPeer {
		tc := c0.(*tcpConn)
		tc.peersMu.Lock()
		defer tc.peersMu.Unlock()
		return tc.peers[1]
	}
	before := peer()

	namesType := func(err error) bool { return err != nil && strings.Contains(err.Error(), "transport.unregistered") }
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := c0.Call(ctx, 1, hotPing{Key: "stock:1:2", N: uint64(i)}); err != nil {
					t.Errorf("registered call failed: %v", err)
					return
				}
				if _, err := c0.Call(ctx, 1, unregistered{N: i}); !namesType(err) {
					t.Errorf("unregistered Call: err = %v, want one naming the type", err)
					return
				}
				if err := c0.Send(ctx, 1, unregistered{N: i}); !namesType(err) {
					t.Errorf("unregistered Send: err = %v, want one naming the type", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// The same holds for a handler's reply: the caller gets a remote
	// error naming the type, the reply path stays up.
	if _, err := c0.Call(ctx, 1, hotPing{Key: "bad-reply"}); !errors.Is(err, ErrRemote) || !namesType(err) {
		t.Errorf("unregistered reply: err = %v, want a remote error naming the type", err)
	}
	if _, err := c0.Call(ctx, 1, hotPing{Key: "after"}); err != nil {
		t.Errorf("call after the unregistered reply: %v", err)
	}
	if sent := n.NetMetrics().MsgsSent(); sent < 800 {
		t.Errorf("MsgsSent = %d, want >= 800", sent)
	}
	if after := peer(); after != before {
		t.Error("the link to node 1 was redialed")
	}
}

// TestTCPRejectsNonBinaryStream: what arrives on a listener is outside
// input. A connection that opens with a gob stream, or with a preamble of
// another version, is closed without a byte of reply, while a well-formed
// peer on the same listener keeps being served.
func TestTCPRejectsNonBinaryStream(t *testing.T) {
	n := NewTCPNetwork(map[NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"})
	defer n.Close()
	if _, err := n.Node(1, hotEchoHandler(nil)); err != nil {
		t.Fatal(err)
	}
	c0, err := n.Node(0, hotEchoHandler(nil))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	served := func(when string) {
		t.Helper()
		if _, err := c0.Call(ctx, 1, hotPing{Key: when}); err != nil {
			t.Fatalf("well-formed peer %s: %v", when, err)
		}
	}
	served("before")

	var gobStream bytes.Buffer
	if err := gob.NewEncoder(&gobStream).Encode(struct {
		ID      uint64
		Payload string
	}{ID: 1, Payload: "hello"}); err != nil {
		t.Fatal(err)
	}
	for name, opening := range map[string][]byte{
		"gob stream":      gobStream.Bytes(),
		"preamble v9":     {0x00, 'A', 'W', 0x09},
		"not even a zero": []byte("GET / HTTP/1.1\r\n\r\n"),
	} {
		conn, err := net.Dial("tcp", n.Addr(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(opening); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		// Closing with the rest of the opening unread resets the
		// connection, so any end but a reply or the deadline will do.
		var nerr net.Error
		if got, err := io.ReadAll(conn); len(got) != 0 || (errors.As(err, &nerr) && nerr.Timeout()) {
			t.Errorf("%s: read %d bytes, err %v; want the connection closed with no reply", name, len(got), err)
		}
		conn.Close()
		served("after " + name)
	}
}
