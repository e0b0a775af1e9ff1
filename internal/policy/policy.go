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
	Kind  string // "pull" or "push"
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

// registry is a concurrency-safe name → factory map with alias support.
type registry[F any] struct {
	kind      string
	mu        sync.RWMutex
	factories map[string]F
	aliases   map[string]string
}

func newRegistry[F any](kind string) *registry[F] {
	return &registry[F]{
		kind:      kind,
		factories: make(map[string]F),
		aliases:   make(map[string]string),
	}
}

func (r *registry[F]) taken(name string) bool {
	if _, ok := r.factories[name]; ok {
		return true
	}
	_, ok := r.aliases[name]
	return ok
}

func (r *registry[F]) register(name string, f F) error {
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

func (r *registry[F]) alias(alias, canonical string) {
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

func (r *registry[F]) lookup(name string) (F, error) {
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
func (r *registry[F]) namesLocked() []string {
	names := make([]string, 0, len(r.factories))
	for name := range r.factories {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func (r *registry[F]) known(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.taken(name)
}

func (r *registry[F]) names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.namesLocked()
}

var (
	pulls  = newRegistry[PullFactory]("pull")
	pushes = newRegistry[PushFactory]("push")
)

// RegisterPull adds a pull-policy factory under a new name. Registering an
// empty or already-taken name is a typed error.
//
//lint:allow deadcode registration API: the extension point for pull policies outside this package
func RegisterPull(name string, f PullFactory) error { return pulls.register(name, f) }

// RegisterPush adds a push-scheduler factory under a new name.
//
//lint:allow deadcode registration API: the extension point for push schedulers outside this package
func RegisterPush(name string, f PushFactory) error { return pushes.register(name, f) }

// NewPull builds the named pull policy. An empty name selects DefaultPull.
func NewPull(name string, p Params) (sched.PullPolicy, error) {
	if name == "" {
		name = DefaultPull
	}
	f, err := pulls.lookup(name)
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
	f, err := pushes.lookup(name)
	if err != nil {
		return nil, err
	}
	return f(p)
}

// KnownPush reports whether a push-scheduler name (or alias) is registered.
func KnownPush(name string) bool { return name == "" || pushes.known(name) }

// PullNames returns the sorted canonical pull-policy names.
func PullNames() []string { return pulls.names() }

// PushNames returns the sorted canonical push-scheduler names.
func PushNames() []string { return pushes.names() }

func mustRegisterPull(name string, f PullFactory) {
	if err := pulls.register(name, f); err != nil {
		panic(fmt.Errorf("policy: built-in pull registration: %w", err))
	}
}

func mustRegisterPush(name string, f PushFactory) {
	if err := pushes.register(name, f); err != nil {
		panic(fmt.Errorf("policy: built-in push registration: %w", err))
	}
}

func init() {
	// Pull policies. The paper's γ(α) and its two degenerate α endpoints,
	// plus the baselines it is evaluated against.
	mustRegisterPull("gamma", func(p Params) (sched.PullPolicy, error) {
		return sched.NewImportanceFactor(p.Alpha)
	})
	mustRegisterPull("stretch", func(Params) (sched.PullPolicy, error) {
		return sched.StretchOptimal{}, nil
	})
	mustRegisterPull("priority", func(Params) (sched.PullPolicy, error) {
		return sched.PriorityOnly{}, nil
	})
	mustRegisterPull("fcfs", func(Params) (sched.PullPolicy, error) {
		return sched.FCFS{}, nil
	})
	mustRegisterPull("edf", func(p Params) (sched.PullPolicy, error) {
		return sched.EDF{TTL: p.TTL}, nil
	})
	mustRegisterPull("mrf", func(Params) (sched.PullPolicy, error) {
		return sched.MRF{}, nil
	})
	mustRegisterPull("rxw", func(Params) (sched.PullPolicy, error) {
		return sched.RxW{}, nil
	})
	mustRegisterPull("classic-stretch", func(Params) (sched.PullPolicy, error) {
		return sched.ClassicStretch{}, nil
	})
	// Historical facade spellings.
	pulls.alias("importance-factor", "gamma")
	pulls.alias("stretch-optimal", "stretch")
	pulls.alias("priority-only", "priority")

	// Push schedulers.
	mustRegisterPush("roundrobin", func(p Params) (sched.PushScheduler, error) {
		if p.Cutoff < 1 {
			return nil, fmt.Errorf("policy: roundrobin push needs cutoff ≥ 1, got %d", p.Cutoff)
		}
		return sched.NewFlatRoundRobin(p.Cutoff), nil
	})
	mustRegisterPush("broadcast-disk", func(p Params) (sched.PushScheduler, error) {
		disks := p.Disks
		if disks == 0 {
			disks = DefaultDisks
		}
		return sched.NewBroadcastDisk(p.Catalog, p.Cutoff, disks)
	})
	mustRegisterPush("square-root", func(p Params) (sched.PushScheduler, error) {
		return sched.NewSquareRootRule(p.Catalog, p.Cutoff)
	})
	mustRegisterPush("none", func(Params) (sched.PushScheduler, error) {
		return sched.NoPush{}, nil
	})
	pushes.alias("flat", "roundrobin")
	pushes.alias("square-root-rule", "square-root")
}
