// Package bandwidth models the downlink bandwidth partitioning of the hybrid
// scheduler. Section 3 of the paper: each service class is assigned a
// fraction of the available bandwidth; the bandwidth an item transmission
// requires is random (Poisson); when the requirement exceeds what the
// governing class has available, "the data item and the corresponding
// requests are lost" — i.e. blocked. Section 5/abstract: assigning an
// appropriate fraction to the highest-priority class keeps its blocking
// (dropped requests) low.
//
// The model: a total capacity of Total bandwidth units is split into
// per-class pools. A transmission on behalf of class c draws a demand
// b ~ 1 + Poisson(DemandMean·L) and attempts to reserve b units from pool c;
// Release returns them. Blocking statistics are kept per class. An optional
// shared-overflow mode (beyond the paper) lets a class borrow idle bandwidth
// from lower-priority pools, implemented as an ablation.
package bandwidth

import (
	"fmt"
	"math"

	"hybridqos/internal/clients"
	"hybridqos/internal/rng"
)

// Config parameterises an Allocator.
type Config struct {
	// Total is the total downlink bandwidth in units.
	Total float64
	// Fractions gives each class's share of Total, class 0 first. Must be
	// positive and sum to 1 (±1e-9).
	Fractions []float64
	// DemandMean scales the Poisson bandwidth demand: an item of length L
	// draws 1 + Poisson(DemandMean·L) units.
	DemandMean float64
	// AllowBorrow enables overflow into lower-priority pools when the
	// governing class's own pool cannot cover the demand (ablation mode;
	// the paper's scheme is strict partitioning).
	AllowBorrow bool
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Total <= 0 || math.IsNaN(c.Total) || math.IsInf(c.Total, 0) {
		return fmt.Errorf("bandwidth: invalid total %g", c.Total)
	}
	if len(c.Fractions) == 0 {
		return fmt.Errorf("bandwidth: no class fractions")
	}
	sum := 0.0
	for i, f := range c.Fractions {
		if f <= 0 || math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("bandwidth: invalid fraction %g for class %d", f, i)
		}
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("bandwidth: fractions sum to %g, want 1", sum)
	}
	if c.DemandMean < 0 || math.IsNaN(c.DemandMean) || math.IsInf(c.DemandMean, 0) {
		return fmt.Errorf("bandwidth: invalid demand mean %g", c.DemandMean)
	}
	return nil
}

// PaperConfig returns the default partitioning used in the reproduction:
// total 30 units split 50%/30%/20% favouring Class-A, demand mean 2 per
// length unit. (The paper does not publish its exact numbers; these produce
// the qualitative behaviour §5 reports — near-zero Class-A blocking.)
func PaperConfig() Config {
	return Config{Total: 30, Fractions: []float64{0.5, 0.3, 0.2}, DemandMean: 2}
}

// poolTake records how many units a grant took from one pool.
type poolTake struct {
	pool  int
	units float64
}

// Grant is a successful reservation, to be handed back via Release.
type Grant struct {
	class clients.Class
	takes []poolTake
}

// Class returns the governing class the grant was made for.
func (g *Grant) Class() clients.Class { return g.class }

// ClassStats aggregates outcomes for one class.
type ClassStats struct {
	// Attempts counts reservation attempts.
	Attempts int64
	// Blocked counts attempts rejected for insufficient bandwidth.
	Blocked int64
}

// BlockingRate returns Blocked/Attempts, or 0 when no attempts were made.
//
//lint:allow deadcode oracle: TestBlockingRateMatchesAnalyticModel compares the simulated rate against analytic.ExpectedBlockingRate
func (s ClassStats) BlockingRate() float64 {
	if s.Attempts == 0 {
		return 0
	}
	return float64(s.Blocked) / float64(s.Attempts)
}

// Allocator manages the per-class pools.
type Allocator struct {
	cfg       Config
	capacity  []float64 // per-class capacity
	available []float64 // per-class currently free
	stats     []ClassStats
	rng       *rng.Source
}

// New builds an Allocator. The rng source drives the Poisson demand draws.
func New(cfg Config, src *rng.Source) (*Allocator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("bandwidth: nil rng source")
	}
	a := &Allocator{
		cfg:       cfg,
		capacity:  make([]float64, len(cfg.Fractions)),
		available: make([]float64, len(cfg.Fractions)),
		stats:     make([]ClassStats, len(cfg.Fractions)),
		rng:       src,
	}
	for i, f := range cfg.Fractions {
		a.capacity[i] = cfg.Total * f
		a.available[i] = a.capacity[i]
	}
	return a, nil
}

// Must is New that panics on error.
//
//lint:allow deadcode shared test fixture: tests in several packages build allocators with it
func Must(cfg Config, src *rng.Source) *Allocator {
	a, err := New(cfg, src)
	if err != nil {
		panic(fmt.Errorf("bandwidth: Must: %w", err))
	}
	return a
}

// NumClasses returns the number of pools.
func (a *Allocator) NumClasses() int { return len(a.capacity) }

// Capacity returns class c's total pool size.
func (a *Allocator) Capacity(c clients.Class) float64 {
	a.check(c)
	return a.capacity[c]
}

// Available returns class c's currently free bandwidth.
func (a *Allocator) Available(c clients.Class) float64 {
	a.check(c)
	return a.available[c]
}

// Stats returns a copy of class c's outcome counters.
func (a *Allocator) Stats(c clients.Class) ClassStats {
	a.check(c)
	return a.stats[c]
}

// demand draws the Poisson bandwidth requirement for an item of the given
// length: 1 + Poisson(DemandMean·length) units (the +1 keeps demands
// strictly positive as a zero-bandwidth transmission is meaningless).
func (a *Allocator) demand(length float64) float64 {
	if length <= 0 || math.IsNaN(length) {
		panic(fmt.Sprintf("bandwidth: invalid length %g", length))
	}
	return 1 + float64(a.rng.Poisson(a.cfg.DemandMean*length))
}

// Reserve attempts to reserve bandwidth for an item of the given length on
// behalf of class c. It draws the Poisson demand, then either grants it
// (possibly borrowing from lower-priority pools when AllowBorrow is set) or
// blocks. A nil grant with blocked=true means the item and its pending
// requests are lost, per the paper.
func (a *Allocator) Reserve(c clients.Class, length float64) (g *Grant, blocked bool) {
	a.check(c)
	demand := a.demand(length)
	a.stats[c].Attempts++

	if a.available[c] >= demand {
		a.available[c] -= demand
		return &Grant{class: c, takes: []poolTake{{int(c), demand}}}, false
	}

	if a.cfg.AllowBorrow {
		// Take everything from own pool, then spill into lower-priority
		// pools (higher class index), lowest priority first.
		free := a.available[c]
		order := []int{int(c)}
		for p := len(a.available) - 1; p > int(c) && free < demand; p-- {
			if a.available[p] > 0 {
				free += a.available[p]
				order = append(order, p)
			}
		}
		if free >= demand {
			remaining := demand
			takes := make([]poolTake, 0, len(order))
			for _, p := range order {
				if remaining <= 0 {
					break
				}
				take := math.Min(a.available[p], remaining)
				if take > 0 {
					a.available[p] -= take
					takes = append(takes, poolTake{p, take})
					remaining -= take
				}
			}
			return &Grant{class: c, takes: takes}, false
		}
	}

	a.stats[c].Blocked++
	return nil, true
}

// Release returns a grant's bandwidth to exactly the pools it was taken
// from. Releasing nil or an already-released grant panics: it indicates
// double accounting in the scheduler.
func (a *Allocator) Release(g *Grant) {
	if g == nil || g.takes == nil {
		panic("bandwidth: releasing nil or already-released grant")
	}
	for _, tk := range g.takes {
		a.available[tk.pool] += tk.units
		if a.available[tk.pool] > a.capacity[tk.pool]+1e-9 {
			panic(fmt.Sprintf("bandwidth: pool %d overfilled to %g (capacity %g)", tk.pool, a.available[tk.pool], a.capacity[tk.pool]))
		}
	}
	g.takes = nil
}

func (a *Allocator) check(c clients.Class) {
	if c < 0 || int(c) >= len(a.capacity) {
		panic(fmt.Sprintf("bandwidth: class %d out of [0,%d)", int(c), len(a.capacity)))
	}
}
