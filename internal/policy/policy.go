// Package policy is the named registry that decouples the simulation engine
// from its scheduling policies. The engine (internal/core) asks for policies
// by name; this package owns the name → constructor mapping for both policy
// kinds:
//
//   - pull policies (sched.PullPolicy): score the pull queue. Built-ins:
//     gamma (the paper's γ(α) importance factor — the default), stretch,
//     priority, fcfs, edf, mrf, rxw, classic-stretch.
//   - push schedulers (sched.PushScheduler): order the broadcast cycle.
//     Built-ins: roundrobin (the paper's flat cycle — the default),
//     broadcast-disk, square-root, none (pure pull).
//
// Factories receive a Params snapshot taken from the engine configuration,
// so a policy can consume whichever knobs it needs (α for gamma, the TTL
// for edf, the catalog and cutoff for push programs) while ignoring the
// rest. External packages can add policies with RegisterPull/RegisterPush;
// registration is safe for concurrent use and duplicate names are typed
// errors, as are lookups of unknown names.
package policy

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"hybridqos/internal/catalog"
	"hybridqos/internal/sched"
)

// Params carries the engine-configuration knobs a policy factory may need.
// Each factory reads only the fields relevant to its policy.
type Params struct {
	// Alpha is the γ(α) stretch/priority mixing fraction (pull: gamma).
	Alpha float64
	// TTL is the request time-to-live; edf derives deadlines from it
	// (≤ 0 means no deadlines and edf degenerates to fcfs order).
	TTL float64
	// Disks is the broadcast-disk count (push: broadcast-disk); 0 selects
	// the default of 3 disks.
	Disks int
	// Catalog is the item catalog (push schedulers that weight by
	// popularity or length need it).
	Catalog *catalog.Catalog
	// Cutoff is the push set size K (push schedulers broadcast ranks 1..K).
	Cutoff int
}

// DefaultDisks is the broadcast-disk count used when Params.Disks is 0.
const DefaultDisks = 3

// Default policy names: the paper's own configuration.
const (
	DefaultPull = "gamma"
	DefaultPush = "roundrobin"
)

// PullFactory builds a pull policy from engine parameters.
type PullFactory func(p Params) (sched.PullPolicy, error)

// PushFactory builds a push scheduler from engine parameters.
type PushFactory func(p Params) (sched.PushScheduler, error)

// UnknownError reports a lookup of a name that is not registered.
type UnknownError struct {
	Kind  string // "pull", "push" or another registry's kind
	Name  string
	Known []string
}

func (e *UnknownError) Error() string {
	return fmt.Sprintf("policy: unknown %s policy %q (known: %s)",
		e.Kind, e.Name, strings.Join(e.Known, ", "))
}

// DuplicateError reports a registration under an already-taken name.
type DuplicateError struct {
	Kind string
	Name string
}

func (e *DuplicateError) Error() string {
	return fmt.Sprintf("policy: duplicate %s policy registration %q", e.Kind, e.Name)
}

// Registry is a concurrency-safe name → factory map with alias support.
// The pull and push registries below are two instances; other packages
// keep their own named factories in one (cluster's routing policies).
type Registry[F any] struct {
	kind      string
	mu        sync.RWMutex
	factories map[string]F
	aliases   map[string]string
}

// NewRegistry returns an empty registry whose errors name kind.
func NewRegistry[F any](kind string) *Registry[F] {
	return &Registry[F]{
		kind:      kind,
		factories: make(map[string]F),
		aliases:   make(map[string]string),
	}
}

func (r *Registry[F]) taken(name string) bool {
	if _, ok := r.factories[name]; ok {
		return true
	}
	_, ok := r.aliases[name]
	return ok
}

// Register adds a factory under a new name. An empty name is an error, an
// already-taken name or alias a *DuplicateError.
func (r *Registry[F]) Register(name string, f F) error {
	if name == "" {
		return fmt.Errorf("policy: empty %s policy name", r.kind)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.taken(name) {
		return &DuplicateError{Kind: r.kind, Name: name}
	}
	r.factories[name] = f
	return nil
}

// MustRegister is Register for built-ins: a registration error panics.
// qoslint's registrydoc rule requires every name it is given to appear in
// the docs.
func (r *Registry[F]) MustRegister(name string, f F) {
	if err := r.Register(name, f); err != nil {
		panic(fmt.Errorf("policy: built-in %s registration: %w", r.kind, err))
	}
}

func (r *Registry[F]) alias(alias, canonical string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.taken(alias) {
		panic(&DuplicateError{Kind: r.kind, Name: alias})
	}
	if _, ok := r.factories[canonical]; !ok {
		panic(fmt.Sprintf("policy: alias %q to unknown %s policy %q", alias, r.kind, canonical))
	}
	r.aliases[alias] = canonical
}

// Lookup returns the factory registered under name or an alias of it; an
// unregistered name is an *UnknownError listing the known names.
func (r *Registry[F]) Lookup(name string) (F, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if canonical, ok := r.aliases[name]; ok {
		name = canonical
	}
	f, ok := r.factories[name]
	if !ok {
		var zero F
		return zero, &UnknownError{Kind: r.kind, Name: name, Known: r.namesLocked()}
	}
	return f, nil
}

// namesLocked returns the sorted canonical names; callers hold at least a
// read lock.
func (r *Registry[F]) namesLocked() []string {
	names := make([]string, 0, len(r.factories))
	for name := range r.factories {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Known reports whether name or an alias of that name is registered.
func (r *Registry[F]) Known(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.taken(name)
}

// Names returns the sorted canonical names.
func (r *Registry[F]) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.namesLocked()
}

var (
	pulls  = NewRegistry[PullFactory]("pull")
	pushes = NewRegistry[PushFactory]("push")
)

// RegisterPull adds a pull-policy factory under a new name. Registering an
// empty or already-taken name is a typed error.
//
//lint:allow deadcode registration API: the extension point for pull policies outside this package
func RegisterPull(name string, f PullFactory) error { return pulls.Register(name, f) }

// RegisterPush adds a push-scheduler factory under a new name.
//
//lint:allow deadcode registration API: the extension point for push schedulers outside this package
func RegisterPush(name string, f PushFactory) error { return pushes.Register(name, f) }

// NewPull builds the named pull policy. An empty name selects DefaultPull.
func NewPull(name string, p Params) (sched.PullPolicy, error) {
	if name == "" {
		name = DefaultPull
	}
	f, err := pulls.Lookup(name)
	if err != nil {
		return nil, err
	}
	return f(p)
}

// NewPush builds the named push scheduler. An empty name selects DefaultPush.
func NewPush(name string, p Params) (sched.PushScheduler, error) {
	if name == "" {
		name = DefaultPush
	}
	f, err := pushes.Lookup(name)
	if err != nil {
		return nil, err
	}
	return f(p)
}

// KnownPush reports whether a push-scheduler name (or alias) is registered.
func KnownPush(name string) bool { return name == "" || pushes.Known(name) }

// PullNames returns the sorted canonical pull-policy names.
func PullNames() []string { return pulls.Names() }

// PushNames returns the sorted canonical push-scheduler names.
func PushNames() []string { return pushes.Names() }

func init() {
	// Pull policies. The paper's γ(α) and its two degenerate α endpoints,
	// plus the baselines it is evaluated against.
	pulls.MustRegister("gamma", func(p Params) (sched.PullPolicy, error) {
		return sched.NewImportanceFactor(p.Alpha)
	})
	pulls.MustRegister("stretch", func(Params) (sched.PullPolicy, error) {
		return sched.StretchOptimal{}, nil
	})
	pulls.MustRegister("priority", func(Params) (sched.PullPolicy, error) {
		return sched.PriorityOnly{}, nil
	})
	pulls.MustRegister("fcfs", func(Params) (sched.PullPolicy, error) {
		return sched.FCFS{}, nil
	})
	pulls.MustRegister("edf", func(p Params) (sched.PullPolicy, error) {
		return sched.EDF{TTL: p.TTL}, nil
	})
	pulls.MustRegister("mrf", func(Params) (sched.PullPolicy, error) {
		return sched.MRF{}, nil
	})
	pulls.MustRegister("rxw", func(Params) (sched.PullPolicy, error) {
		return sched.RxW{}, nil
	})
	pulls.MustRegister("classic-stretch", func(Params) (sched.PullPolicy, error) {
		return sched.ClassicStretch{}, nil
	})
	// Historical facade spellings.
	pulls.alias("importance-factor", "gamma")
	pulls.alias("stretch-optimal", "stretch")
	pulls.alias("priority-only", "priority")

	// Push schedulers.
	pushes.MustRegister("roundrobin", func(p Params) (sched.PushScheduler, error) {
		if p.Cutoff < 1 {
			return nil, fmt.Errorf("policy: roundrobin push needs cutoff ≥ 1, got %d", p.Cutoff)
		}
		return sched.NewFlatRoundRobin(p.Cutoff), nil
	})
	pushes.MustRegister("broadcast-disk", func(p Params) (sched.PushScheduler, error) {
		disks := p.Disks
		if disks == 0 {
			disks = DefaultDisks
		}
		return sched.NewBroadcastDisk(p.Catalog, p.Cutoff, disks)
	})
	pushes.MustRegister("square-root", func(p Params) (sched.PushScheduler, error) {
		return sched.NewSquareRootRule(p.Catalog, p.Cutoff)
	})
	pushes.MustRegister("none", func(Params) (sched.PushScheduler, error) {
		return sched.NoPush{}, nil
	})
	pushes.alias("flat", "roundrobin")
	pushes.alias("square-root-rule", "square-root")
}
