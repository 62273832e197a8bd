package chaos

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"alohadb/internal/transport"
)

type countMsg struct{ N int }
type otherMsg struct{ N int }

// scriptRun drives a fixed single-threaded message sequence through a fresh
// chaos-wrapped in-memory mesh and returns the decision log.
func scriptRun(t *testing.T, seed int64) []Decision {
	t.Helper()
	net := Wrap(transport.NewMemNetwork(), Config{Seed: seed, Probabilities: DefaultProbabilities()})
	defer net.Close()
	net.Record()
	for id := 0; id < 2; id++ {
		if _, err := net.Node(transport.NodeID(id)+10, func(ctx context.Context, from transport.NodeID, msg any) (any, error) {
			return msg, nil
		}); err != nil {
			t.Fatalf("node: %v", err)
		}
	}
	c, err := net.Node(0, func(ctx context.Context, from transport.NodeID, msg any) (any, error) { return msg, nil })
	if err != nil {
		t.Fatalf("node 0: %v", err)
	}
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		to := transport.NodeID(10 + i%2)
		if i%3 == 0 {
			_ = c.Send(ctx, to, otherMsg{N: i})
		} else {
			_, _ = c.Call(ctx, to, countMsg{N: i})
		}
	}
	return net.Log()
}

// TestReplayDeterminism is the acceptance-criterion check: the same seed
// over the same message sequence yields a bit-for-bit identical fault
// schedule, and a different seed yields a different one.
func TestReplayDeterminism(t *testing.T) {
	a := scriptRun(t, 42)
	b := scriptRun(t, 42)
	if len(a) == 0 {
		t.Fatal("empty decision log")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fault schedules diverged for the same seed:\n%v\nvs\n%v", a, b)
	}
	other := scriptRun(t, 43)
	if reflect.DeepEqual(a, other) {
		t.Fatal("different seeds produced identical fault schedules")
	}
	injected := 0
	for _, d := range a {
		injected += len(d.Faults)
	}
	if injected == 0 {
		t.Fatal("default probabilities injected nothing over 200 messages")
	}
}

func twoNodes(t *testing.T, cfg Config) (*Network, transport.Conn, transport.Conn, *atomic.Int64) {
	t.Helper()
	net := Wrap(transport.NewMemNetwork(), cfg)
	t.Cleanup(func() { net.Close() })
	var handled atomic.Int64
	h := func(ctx context.Context, from transport.NodeID, msg any) (any, error) {
		handled.Add(1)
		return msg, nil
	}
	c0, err := net.Node(0, h)
	if err != nil {
		t.Fatalf("node 0: %v", err)
	}
	c1, err := net.Node(1, h)
	if err != nil {
		t.Fatalf("node 1: %v", err)
	}
	return net, c0, c1, &handled
}

func TestSeverIsDirectional(t *testing.T) {
	net, c0, c1, _ := twoNodes(t, Config{Seed: 1})
	ctx := context.Background()
	net.Sever(0, 1)
	if _, err := c0.Call(ctx, 1, countMsg{}); !errors.Is(err, ErrInjected) {
		t.Fatalf("severed 0->1 call: got %v, want ErrInjected", err)
	}
	if _, err := c1.Call(ctx, 0, countMsg{}); err != nil {
		t.Fatalf("reverse link 1->0 should be up: %v", err)
	}
	net.Heal(0, 1)
	if _, err := c0.Call(ctx, 1, countMsg{}); err != nil {
		t.Fatalf("healed link: %v", err)
	}
}

func TestDropCallNeverReachesHandler(t *testing.T) {
	_, c0, _, handled := twoNodes(t, Config{Seed: 1, Probabilities: Probabilities{DropCall: 1}})
	if _, err := c0.Call(context.Background(), 1, countMsg{}); !errors.Is(err, ErrInjected) {
		t.Fatalf("got %v, want ErrInjected", err)
	}
	if n := handled.Load(); n != 0 {
		t.Fatalf("handler ran %d times on a dropped request", n)
	}
}

func TestDropRespRunsHandler(t *testing.T) {
	_, c0, _, handled := twoNodes(t, Config{Seed: 1, Probabilities: Probabilities{DropResp: 1}})
	if _, err := c0.Call(context.Background(), 1, countMsg{}); !errors.Is(err, ErrInjected) {
		t.Fatalf("got %v, want ErrInjected", err)
	}
	if n := handled.Load(); n != 1 {
		t.Fatalf("handler ran %d times, want 1 (request delivered, response lost)", n)
	}
}

func TestDuplicateSendDeliversTwice(t *testing.T) {
	_, c0, _, handled := twoNodes(t, Config{Seed: 1, Probabilities: Probabilities{Duplicate: 1}})
	if err := c0.Send(context.Background(), 1, countMsg{}); err != nil {
		t.Fatalf("send: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for handled.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("handled = %d, want 2 (duplicate delivery)", handled.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDropSendIsSilent(t *testing.T) {
	_, c0, _, handled := twoNodes(t, Config{Seed: 1, Probabilities: Probabilities{DropSend: 1}})
	if err := c0.Send(context.Background(), 1, countMsg{}); err != nil {
		t.Fatalf("dropped send must not error: %v", err)
	}
	time.Sleep(20 * time.Millisecond)
	if n := handled.Load(); n != 0 {
		t.Fatalf("handler ran %d times on a dropped send", n)
	}
}

func TestProtectExemptsMessages(t *testing.T) {
	cfg := Config{
		Seed:          1,
		Probabilities: Probabilities{DropCall: 1},
		Protect:       func(msg any) bool { _, ok := msg.(otherMsg); return ok },
	}
	_, c0, _, _ := twoNodes(t, cfg)
	ctx := context.Background()
	if _, err := c0.Call(ctx, 1, otherMsg{}); err != nil {
		t.Fatalf("protected message faulted: %v", err)
	}
	if _, err := c0.Call(ctx, 1, countMsg{}); !errors.Is(err, ErrInjected) {
		t.Fatalf("unprotected message survived DropCall=1: %v", err)
	}
}

func TestDisabledDrawsNothing(t *testing.T) {
	net, c0, _, _ := twoNodes(t, Config{Seed: 1, Probabilities: Probabilities{DropCall: 1}})
	net.Record()
	net.SetEnabled(false)
	for i := 0; i < 10; i++ {
		if _, err := c0.Call(context.Background(), 1, countMsg{N: i}); err != nil {
			t.Fatalf("disabled injector faulted: %v", err)
		}
	}
	if lg := net.Log(); len(lg) != 0 {
		t.Fatalf("disabled injector logged %d decisions", len(lg))
	}
	// Severed links still apply while disabled.
	net.Sever(0, 1)
	if _, err := c0.Call(context.Background(), 1, countMsg{}); !errors.Is(err, ErrInjected) {
		t.Fatalf("severed link ignored while disabled: %v", err)
	}
	net.HealAll()
	if _, err := c0.Call(context.Background(), 1, countMsg{}); err != nil {
		t.Fatalf("HealAll: %v", err)
	}
}

func TestFaultString(t *testing.T) {
	for f, want := range map[Fault]string{
		FaultDropCall:  "drop-call",
		FaultDropResp:  "drop-resp",
		FaultDropSend:  "drop-send",
		FaultDuplicate: "duplicate",
		FaultDelay:     "delay",
		FaultSevered:   "severed",
	} {
		if got := fmt.Sprint(f); got != want {
			t.Errorf("Fault(%d) = %q, want %q", f, got, want)
		}
	}
}
