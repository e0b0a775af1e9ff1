package cluster

import (
	"fmt"

	"hybridqos/internal/clients"
	"hybridqos/internal/policy"
	"hybridqos/internal/rng"
)

// Router picks the destination cell for a roaming client. Cross-cell
// routing is a named policy kept in an internal/policy Registry, so
// experiments can compare strategies without touching the cluster engine.
//
// Determinism contract: Route is called sequentially at handoff barriers, in
// cell-index order, once per roamer; any randomness must come from the
// supplied per-cell stream. The returned cell must be a valid index other
// than src (a roaming client has, by definition, left its cell).
type Router interface {
	// Name identifies the routing policy in reports.
	Name() string
	// Route returns the destination cell for a roamer of the given class
	// leaving cell src. loads holds every cell's current pending load —
	// updated by the cluster as the barrier assigns roamers, so consecutive
	// decisions see the load they are creating. r is the origin cell's
	// mobility stream.
	Route(src int, class clients.Class, loads []int, r *rng.Source) int
}

// Factory builds a router for a cluster of cells cells and classes service
// classes.
type Factory func(cells, classes int) (Router, error)

// DefaultRouting is the routing policy used when no name is given.
const DefaultRouting = "nearest"

// routings holds the routing policies by name; an unknown name is a
// *policy.UnknownError with Kind "routing".
var routings = policy.NewRegistry[Factory]("routing")

// NewRouter builds the named routing policy. An empty name selects
// DefaultRouting.
func NewRouter(name string, cells, classes int) (Router, error) {
	if name == "" {
		name = DefaultRouting
	}
	f, err := routings.Lookup(name)
	if err != nil {
		return nil, err
	}
	return f(cells, classes)
}

// KnownRouting reports whether a routing name is registered; the empty
// string names the default and is always known.
func KnownRouting(name string) bool { return name == "" || routings.Known(name) }

// RoutingNames returns the sorted registered routing-policy names.
func RoutingNames() []string { return routings.Names() }

// checkCells validates the cluster size a factory was handed.
func checkCells(cells int) error {
	if cells < 2 {
		return fmt.Errorf("cluster: routing needs at least 2 cells, got %d", cells)
	}
	return nil
}

// nearest routes to a ring neighbour: a roamer drifts to one of the two
// geographically adjacent cells, direction drawn from the origin cell's
// mobility stream (with 2 cells there is only one neighbour).
type nearest struct{ cells int }

func (nearest) Name() string { return "nearest" }

func (p nearest) Route(src int, _ clients.Class, _ []int, r *rng.Source) int {
	if p.cells == 2 {
		return 1 - src
	}
	if r.Intn(2) == 0 {
		return (src + 1) % p.cells
	}
	return (src + p.cells - 1) % p.cells
}

// leastLoaded routes to the cell with the smallest pending load, ties broken
// by lowest index. The load vector is live across a barrier, so a burst of
// roamers spreads instead of piling onto one momentarily-idle cell.
type leastLoaded struct{ cells int }

func (leastLoaded) Name() string { return "least-loaded" }

func (p leastLoaded) Route(src int, _ clients.Class, loads []int, _ *rng.Source) int {
	return argMinLoad(loads, src)
}

// classAffine partitions cells round-robin across service classes
// (cell i serves class i mod classes) and routes a roamer to the
// least-loaded cell of its own class's partition, falling back to plain
// least-loaded when the partition offers no destination.
type classAffine struct{ cells, classes int }

func (classAffine) Name() string { return "class-affine" }

func (p classAffine) Route(src int, class clients.Class, loads []int, _ *rng.Source) int {
	best := -1
	for i := 0; i < p.cells; i++ {
		if i == src || i%p.classes != int(class) {
			continue
		}
		if best == -1 || loads[i] < loads[best] {
			best = i
		}
	}
	if best == -1 {
		return argMinLoad(loads, src)
	}
	return best
}

// argMinLoad returns the index of the least-loaded cell other than src,
// lowest index winning ties.
func argMinLoad(loads []int, src int) int {
	best := -1
	for i, l := range loads {
		if i == src {
			continue
		}
		if best == -1 || l < loads[best] {
			best = i
		}
	}
	return best
}

func init() {
	routings.MustRegister("nearest", func(cells, _ int) (Router, error) {
		if err := checkCells(cells); err != nil {
			return nil, err
		}
		return nearest{cells: cells}, nil
	})
	routings.MustRegister("least-loaded", func(cells, _ int) (Router, error) {
		if err := checkCells(cells); err != nil {
			return nil, err
		}
		return leastLoaded{cells: cells}, nil
	})
	routings.MustRegister("class-affine", func(cells, classes int) (Router, error) {
		if err := checkCells(cells); err != nil {
			return nil, err
		}
		if classes < 1 {
			return nil, fmt.Errorf("cluster: class-affine routing needs at least 1 class, got %d", classes)
		}
		return classAffine{cells: cells, classes: classes}, nil
	})
}
