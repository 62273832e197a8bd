// Package scenario is ALOHA-DB's declarative workload registry. Each
// scenario registers a name, a set of attributes (smoke, soak, chaos,
// contention, migration, bench, obs), a cluster shape, and a Run body
// that receives a pre-wired environment: a started cluster, a history
// oracle, per-server watchdogs, and (when the shape asks for them) ops
// HTTP listeners a clusterview scraper can poll. The matrix runner
// selects scenarios by attribute expression ("smoke", "soak && !tcp",
// "name:auction-*") and runs them as one suite — the same bodies power
// the quick per-PR smoke matrix, the nightly soak, and ad-hoc replays
// of a failing seed.
//
// The shape is modeled on Tast's declarative test registry: a scenario
// declares what it needs and the harness owns construction, selection,
// timeouts, and teardown, so adding the N+1th workload is one file in
// the catalog rather than the N+1th hand-rolled cluster builder.
package scenario

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Params carries the per-run knobs a scenario's Shape closure may bake
// into its environment: every random choice must derive from Seed so a
// failing run replays from its artifact alone.
type Params struct {
	// Seed is the run's deterministic seed (workload and fault schedule).
	Seed int64
	// Window is how long the body should drive its workload.
	Window time.Duration
	// Soak is set on nightly long runs; bodies may loosen pacing or SLO
	// thresholds that only make sense over hours.
	Soak bool
	// Full selects the paper-scale parameter set (§V-A) in the bench
	// figures; every other scenario ignores it.
	Full bool
}

// Scenario is one registered end-to-end workload.
type Scenario struct {
	// Name uniquely identifies the scenario (lowercase, dash-separated).
	Name string
	// Summary is a one-line description for `aloha-bench list`.
	Summary string
	// Attrs are the selection attributes: smoke (per-PR matrix), soak
	// (nightly long run), chaos, contention, migration, bench, obs.
	Attrs []string
	// Timeout bounds the run beyond the workload window (default 2 min of
	// slack); the runner cancels the body's context when it expires.
	Timeout time.Duration
	// Shape builds the environment config for one run. Nil means the body
	// constructs its own world (the figure sweeps and chaos-crash build
	// several clusters per run); it still receives an Env for seed, window,
	// tracer, output and the oracle the runner checks.
	Shape func(p Params) EnvConfig
	// Run drives the workload. A non-nil error fails the scenario; the
	// runner additionally fails it on watchdog stall episodes.
	Run func(ctx context.Context, env *Env) error
}

// HasAttr reports whether the scenario carries the attribute.
func (s *Scenario) HasAttr(a string) bool {
	for _, x := range s.Attrs {
		if x == a {
			return true
		}
	}
	return false
}

// Registry holds scenarios by name. The package-level Default registry is
// what the catalog populates and the CLI selects from; tests may build
// private registries.
type Registry struct {
	mu     sync.Mutex
	byName map[string]*Scenario
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Scenario)}
}

func validIdent(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
		default:
			return false
		}
	}
	return true
}

// Register adds a scenario, rejecting duplicates and malformed names or
// attributes (lowercase letters, digits, and dashes only — the selection
// expression grammar depends on it).
func (r *Registry) Register(s *Scenario) error {
	if s == nil || s.Run == nil {
		return fmt.Errorf("scenario: register needs a Run body")
	}
	if !validIdent(s.Name) {
		return fmt.Errorf("scenario: invalid name %q", s.Name)
	}
	for _, a := range s.Attrs {
		if !validIdent(a) {
			return fmt.Errorf("scenario: %s: invalid attribute %q", s.Name, a)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[s.Name]; dup {
		return fmt.Errorf("scenario: duplicate name %q", s.Name)
	}
	r.byName[s.Name] = s
	return nil
}

// MustRegister is Register, panicking on error (catalog init paths).
func (r *Registry) MustRegister(s *Scenario) {
	if err := r.Register(s); err != nil {
		panic(err)
	}
}

// All returns every scenario sorted by name.
func (r *Registry) All() []*Scenario {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Scenario, 0, len(r.byName))
	for _, s := range r.byName {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Find returns the named scenario, or nil.
func (r *Registry) Find(name string) *Scenario {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byName[name]
}

// Select returns the scenarios matching the attribute expression, sorted
// by name. See CompileExpr for the grammar.
func (r *Registry) Select(expr string) ([]*Scenario, error) {
	m, err := CompileExpr(expr)
	if err != nil {
		return nil, err
	}
	var out []*Scenario
	for _, s := range r.All() {
		if m(s) {
			out = append(out, s)
		}
	}
	return out, nil
}

var defaultRegistry = NewRegistry()

// Default returns the package-level registry the catalog populates.
func Default() *Registry { return defaultRegistry }

// Register adds a scenario to the default registry.
func Register(s *Scenario) error { return defaultRegistry.Register(s) }

// MustRegister adds a scenario to the default registry, panicking on error.
func MustRegister(s *Scenario) { defaultRegistry.MustRegister(s) }

// AttrsString renders the attribute list for tables and artifacts.
func AttrsString(attrs []string) string { return strings.Join(attrs, ",") }
