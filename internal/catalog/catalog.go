// Package catalog models the server's database: D distinct, heterogeneous
// (variable-length) data items ranked by access probability. The paper's
// simulation (assumptions 1, 3, 4) uses D = 100 items with integer lengths
// drawn uniformly from 1..5 (average 2 is reported for the paper's draw; the
// uniform 1..5 has mean 3, so we also provide a length model matching the
// paper's stated mean — see Lengths* constructors) and Zipf(θ) popularity.
package catalog

import (
	"fmt"
	"math"

	"hybridqos/internal/rng"
	"hybridqos/internal/zipf"
)

// Item is one data item in the server database. Length is in broadcast
// units (the time the downlink needs to transmit the item at unit rate).
type Item struct {
	// Length is the item's transmission length in broadcast units.
	Length float64
	// Prob is the item's access probability P_i under the catalog's Zipf law.
	Prob float64
}

// Catalog is an immutable ranked database of items plus its popularity law.
type Catalog struct {
	items []Item
	dist  *zipf.Distribution
}

// Config parameterises catalog generation.
type Config struct {
	// D is the number of distinct items (paper: 100).
	D int
	// Theta is the Zipf skew coefficient (paper: 0.20 .. 1.40).
	Theta float64
	// MinLen and MaxLen bound the integer item lengths (paper: 1 and 5).
	MinLen, MaxLen int
	// LengthWeights optionally gives the probability mass of each integer
	// length MinLen, MinLen+1, ..., MaxLen. Nil means uniform. The paper's
	// assumption 3 says lengths run 1..5 "with an average of 2", which a
	// uniform draw (mean 3) cannot produce; PaperConfig supplies a PMF with
	// mean exactly 2.
	LengthWeights []float64
	// Seed feeds the deterministic length draw.
	Seed uint64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.D <= 0 {
		return fmt.Errorf("catalog: D must be positive, got %d", c.D)
	}
	if c.Theta < 0 || math.IsNaN(c.Theta) || math.IsInf(c.Theta, 0) {
		return fmt.Errorf("catalog: invalid theta %g", c.Theta)
	}
	if c.MinLen <= 0 || c.MaxLen < c.MinLen {
		return fmt.Errorf("catalog: invalid length bounds [%d,%d]", c.MinLen, c.MaxLen)
	}
	if c.LengthWeights != nil {
		if len(c.LengthWeights) != c.MaxLen-c.MinLen+1 {
			return fmt.Errorf("catalog: %d length weights for %d lengths", len(c.LengthWeights), c.MaxLen-c.MinLen+1)
		}
		sum := 0.0
		for i, w := range c.LengthWeights {
			if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return fmt.Errorf("catalog: invalid length weight %g at index %d", w, i)
			}
			sum += w
		}
		if sum <= 0 {
			return fmt.Errorf("catalog: length weights sum to %g", sum)
		}
	}
	return nil
}

// PaperLengthWeights is the PMF over lengths 1..5 used by PaperConfig:
// mean exactly 2.0 broadcast units, honouring assumption 3 ("varied from 1
// to 5, with an average of 2").
func PaperLengthWeights() []float64 { return []float64{0.40, 0.35, 0.15, 0.05, 0.05} }

// PaperConfig returns the paper's simulation setup (assumptions 1, 3, 4):
// D = 100 items, integer lengths 1..5 with mean 2, with the caller's θ and
// seed.
func PaperConfig(theta float64, seed uint64) Config {
	return Config{D: 100, Theta: theta, MinLen: 1, MaxLen: 5, LengthWeights: PaperLengthWeights(), Seed: seed}
}

// Generate builds a catalog: Zipf(θ) probabilities over ranks 1..D and
// uniformly drawn integer lengths in [MinLen, MaxLen].
func Generate(cfg Config) (*Catalog, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dist, err := zipf.New(cfg.D, cfg.Theta)
	if err != nil {
		return nil, err
	}
	r := rng.New(cfg.Seed).Split("catalog-lengths")
	var lengthSampler func() float64
	if cfg.LengthWeights == nil {
		lengthSampler = func() float64 { return float64(r.IntRange(cfg.MinLen, cfg.MaxLen)) }
	} else {
		alias := rng.MustAlias(cfg.LengthWeights)
		lengthSampler = func() float64 { return float64(cfg.MinLen + alias.Sample(r)) }
	}
	items := make([]Item, cfg.D)
	for i := range items {
		items[i] = Item{
			Length: lengthSampler(),
			Prob:   dist.Prob(i + 1),
		}
	}
	return &Catalog{items: items, dist: dist}, nil
}

// MustGenerate is Generate that panics on error.
//
//lint:allow deadcode shared test fixture: tests in several packages build catalogs with it
func MustGenerate(cfg Config) *Catalog {
	c, err := Generate(cfg)
	if err != nil {
		panic(fmt.Errorf("catalog: MustGenerate: %w", err))
	}
	return c
}

// FromLengths builds a catalog with explicitly supplied lengths (rank order)
// and Zipf(θ) probabilities, for tests and analytic cross-checks that need
// full control of the length vector.
func FromLengths(lengths []float64, theta float64) (*Catalog, error) {
	if len(lengths) == 0 {
		return nil, fmt.Errorf("catalog: empty length vector")
	}
	dist, err := zipf.New(len(lengths), theta)
	if err != nil {
		return nil, err
	}
	items := make([]Item, len(lengths))
	for i, l := range lengths {
		if l <= 0 || math.IsNaN(l) || math.IsInf(l, 0) {
			return nil, fmt.Errorf("catalog: invalid length %g at rank %d", l, i+1)
		}
		items[i] = Item{Length: l, Prob: dist.Prob(i + 1)}
	}
	return &Catalog{items: items, dist: dist}, nil
}

// D returns the number of items.
func (c *Catalog) D() int { return len(c.items) }

// Theta returns the popularity skew coefficient.
func (c *Catalog) Theta() float64 { return c.dist.Theta() }

// Item returns the item at the given 1-based rank.
func (c *Catalog) Item(rank int) Item {
	if rank < 1 || rank > len(c.items) {
		panic(fmt.Sprintf("catalog: rank %d out of [1,%d]", rank, len(c.items)))
	}
	return c.items[rank-1]
}

// Length returns the length of the item at the given rank.
func (c *Catalog) Length(rank int) float64 { return c.Item(rank).Length }

// Prob returns the access probability of the item at the given rank.
func (c *Catalog) Prob(rank int) float64 { return c.Item(rank).Prob }

// SampleRank draws an item rank according to the popularity law.
func (c *Catalog) SampleRank(r *rng.Source) int { return c.dist.Sample(r) }

// PushMass returns Σ_{i=1..K} P_i, the probability a request targets the push
// set under cutoff K.
func (c *Catalog) PushMass(k int) float64 {
	c.checkCutoff(k)
	return c.dist.CumProb(k)
}

// PullMass returns Σ_{i=K+1..D} P_i, the probability a request targets the
// pull set under cutoff K.
func (c *Catalog) PullMass(k int) float64 {
	c.checkCutoff(k)
	return c.dist.TailProb(k + 1)
}

// PushCycleLength returns Σ_{i=1..K} L_i — the duration of one full flat
// broadcast cycle over the push set.
func (c *Catalog) PushCycleLength(k int) float64 {
	c.checkCutoff(k)
	sum := 0.0
	for i := 0; i < k; i++ {
		sum += c.items[i].Length
	}
	return sum
}

// WeightedPushLength returns Σ_{i=1..K} P_i·L_i — the paper's μ₁
// (assumption 2).
func (c *Catalog) WeightedPushLength(k int) float64 {
	c.checkCutoff(k)
	sum := 0.0
	for i := 0; i < k; i++ {
		sum += c.items[i].Prob * c.items[i].Length
	}
	return sum
}

// WeightedPullLength returns Σ_{i=K+1..D} P_i·L_i — the paper's μ₂
// (assumption 2).
func (c *Catalog) WeightedPullLength(k int) float64 {
	c.checkCutoff(k)
	sum := 0.0
	for i := k; i < len(c.items); i++ {
		sum += c.items[i].Prob * c.items[i].Length
	}
	return sum
}

// MeanPullServiceTime returns the popularity-weighted mean length of pull
// items, conditioned on the request being a pull request:
// Σ_{i>K} (P_i/PullMass)·L_i. This is the mean service time of the pull
// server in broadcast units, the 1/μ₂ of the engineering analytic model.
func (c *Catalog) MeanPullServiceTime(k int) float64 {
	c.checkCutoff(k)
	mass := c.PullMass(k)
	if mass == 0 {
		return 0
	}
	return c.WeightedPullLength(k) / mass
}

func (c *Catalog) checkCutoff(k int) {
	if k < 0 || k > len(c.items) {
		panic(fmt.Sprintf("catalog: cutoff %d out of [0,%d]", k, len(c.items)))
	}
}
