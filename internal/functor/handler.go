package functor

import (
	"fmt"
	"sync"

	"alohadb/internal/kv"
	"alohadb/internal/tstamp"
)

// Read is the result of reading one key of a functor's read set: the latest
// value strictly below the functor's version, or Found=false if the key had
// no live version there.
type Read struct {
	Value kv.Value
	Found bool
	// Version is the version of the record that produced the value (zero
	// when not found). Optimistic validation (paper §IV-E) compares it
	// against the transaction's snapshot timestamp.
	Version tstamp.Timestamp
}

// Context carries the inputs of one functor computation to its handler.
type Context struct {
	// Key is the key the functor was written to.
	Key kv.Key
	// Version is the functor's (transaction's) version number.
	Version tstamp.Timestamp
	// Arg is the functor's f-argument.
	Arg []byte
	// Reads holds the value of every key in the functor's read set as of
	// the latest version strictly below Version.
	Reads map[kv.Key]Read
}

// Handler computes a user-defined functor. Handlers must be pure functions
// of the context: ALOHA-DB may compute the same functor concurrently on
// multiple threads and installs whichever identical result wins the
// compare-and-swap. A returned error aborts the transaction at this version
// (logic error), which is legal in ECC, unlike in deterministic systems.
//
// The Context (including its Reads map) is only valid for the duration of
// the call — the engine recycles it. Handlers that need an input beyond
// their return must copy it; returning a Read's value bytes in a
// Resolution is fine (values are immutable), retaining the map is not.
type Handler func(ctx *Context) (*Resolution, error)

// Registry maps handler names to handlers. A registry is fixed at server
// start in practice, but registration is synchronized so tests and dynamic
// examples can extend it safely.
type Registry struct {
	mu       sync.RWMutex
	handlers map[string]Handler
}

// NewRegistry returns an empty handler registry.
func NewRegistry() *Registry {
	return &Registry{handlers: make(map[string]Handler)}
}

// Register installs a handler under name. Registering a duplicate name is
// an error: handler identity is part of the data (functors reference
// handlers by name), so silent replacement would corrupt semantics.
func (r *Registry) Register(name string, h Handler) error {
	if name == "" {
		return fmt.Errorf("functor: empty handler name")
	}
	if h == nil {
		return fmt.Errorf("functor: nil handler for %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.handlers[name]; dup {
		return fmt.Errorf("functor: handler %q already registered", name)
	}
	r.handlers[name] = h
	return nil
}

// MustRegister is Register for program initialization; it panics on error.
func (r *Registry) MustRegister(name string, h Handler) {
	if err := r.Register(name, h); err != nil {
		panic(err)
	}
}

// Lookup returns the handler registered under name.
func (r *Registry) Lookup(name string) (Handler, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	h, ok := r.handlers[name]
	return h, ok
}

// EvalArithmetic is Arithmetic with its value wrapped in a Resolution.
func EvalArithmetic(t Type, arg []byte, prev Read) (*Resolution, error) {
	v, err := Arithmetic(t, arg, prev)
	if err != nil {
		return nil, err
	}
	return ValueResolution(v), nil
}

// Arithmetic computes the built-in numeric f-types given the previous
// value of the functor's key. A missing or malformed previous value is
// treated as zero, the natural initial state of a counter.
func Arithmetic(t Type, arg []byte, prev Read) (kv.Value, error) {
	cur := int64(0)
	if prev.Found {
		if n, ok := kv.DecodeInt64(prev.Value); ok {
			cur = n
		}
	}
	delta, ok := kv.DecodeInt64(arg)
	if !ok {
		return nil, fmt.Errorf("functor: malformed %v argument (%d bytes)", t, len(arg))
	}
	switch t {
	case TypeAdd:
		cur += delta
	case TypeSub:
		cur -= delta
	case TypeMax:
		if delta > cur {
			cur = delta
		}
	case TypeMin:
		if delta < cur {
			cur = delta
		}
	default:
		return nil, fmt.Errorf("functor: %v is not arithmetic", t)
	}
	return kv.EncodeInt64(cur), nil
}
