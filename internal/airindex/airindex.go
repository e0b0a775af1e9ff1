// Package airindex models (1, m) air indexing on the push channel — the
// classic energy-efficiency companion to broadcast scheduling (Imielinski,
// Viswanathan, Badrinath): the flat broadcast cycle is augmented with m
// evenly spaced index segments announcing the upcoming schedule, so a
// battery-powered client can DOZE instead of listening continuously.
//
// Two client-side metrics per request:
//
//   - access time — request to end of item reception; U-shaped in m under
//     the index-first protocol (a larger m shortens the wait for the next
//     index but bloats the cycle with index segments);
//   - tuning time — time the receiver is actively listening: one index
//     segment plus the item itself, with the receiver dozing everywhere
//     else (constant in m).
//
// The package provides closed-form expectations for the flat hybrid push
// cycle and the classic access-optimal rule m* ≈ sqrt(Data/IndexLen).
package airindex

import (
	"fmt"
	"math"

	"hybridqos/internal/catalog"
)

// Config parameterises the indexed push channel.
type Config struct {
	// Catalog supplies item lengths and popularity.
	Catalog *catalog.Catalog
	// Cutoff is the push set size K (ranks 1..K are in the cycle).
	Cutoff int
	// IndexLen is one index segment's transmission length in broadcast
	// units.
	IndexLen float64
	// M is the number of index segments per cycle.
	M int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Catalog == nil {
		return fmt.Errorf("airindex: nil catalog")
	}
	if c.Cutoff < 1 || c.Cutoff > c.Catalog.D() {
		return fmt.Errorf("airindex: cutoff %d out of [1,%d]", c.Cutoff, c.Catalog.D())
	}
	if c.IndexLen <= 0 || math.IsNaN(c.IndexLen) || math.IsInf(c.IndexLen, 0) {
		return fmt.Errorf("airindex: index length %g", c.IndexLen)
	}
	if c.M < 1 || c.M > c.Cutoff {
		return fmt.Errorf("airindex: m=%d outside [1,%d]", c.M, c.Cutoff)
	}
	return nil
}

// Metrics are the expected per-request client-side costs for push items.
type Metrics struct {
	// AccessTime is the expected request-to-reception time under the
	// index-first protocol: wait for the next index segment (dozing),
	// read it, doze to the item's slot, receive the item.
	AccessTime float64
	// TuningTime is the expected active-listening time: one index segment
	// plus the item itself (the probe synchronises on bucket pointers and
	// the receiver dozes everywhere else).
	TuningTime float64
	// DozeFraction is 1 − TuningTime/AccessTime, the fraction of the wait
	// the receiver can sleep through.
	DozeFraction float64
}

// Analyze returns the expected metrics for the configuration.
//
// Derivation (standard (1, m) analysis adapted to heterogeneous lengths):
// the data portion of the cycle is Data = Σ_{i≤K} L_i; the indexed cycle is
// C = Data + m·IndexLen and index segments are C/m apart. Under the
// index-first access protocol a client probes at a uniform instant, dozes
// until the next index (C/(2m) on average), reads it (IndexLen), then dozes
// until its item (C/2 on average over items and phases):
//
//	E[access] = C/(2m) + IndexLen + C/2 + E_P[L]
//	E[tune]   = IndexLen + E_P[L]
//
// where E_P[L] is the popularity-weighted mean push item length. Access is
// U-shaped in m (the C/(2m) probe term falls, the m·IndexLen cycle bloat
// grows); tuning is constant — indexing buys energy with a bounded access
// penalty.
func Analyze(c Config) (Metrics, error) {
	if err := c.Validate(); err != nil {
		return Metrics{}, err
	}
	data := c.Catalog.PushCycleLength(c.Cutoff)
	mass := c.Catalog.PushMass(c.Cutoff)
	meanItem := c.Catalog.WeightedPushLength(c.Cutoff) / mass
	cycle := data + float64(c.M)*c.IndexLen

	access := cycle/(2*float64(c.M)) + c.IndexLen + cycle/2 + meanItem
	tune := c.IndexLen + meanItem
	m := Metrics{
		AccessTime: access,
		TuningTime: tune,
	}
	if access > 0 {
		m.DozeFraction = 1 - tune/access
	}
	return m, nil
}

// OptimalM returns the m minimising expected ACCESS time — the classic
// (1, m) result m* = sqrt(Data/IndexLen) — clamped to [1, K], alongside
// the metrics at that m. (Tuning time is constant in m under the
// index-first protocol, so the access optimum is the right default.)
func OptimalM(c Config) (int, Metrics, error) {
	probe := c
	probe.M = 1
	if err := probe.Validate(); err != nil {
		return 0, Metrics{}, err
	}
	data := c.Catalog.PushCycleLength(c.Cutoff)
	mStar := int(math.Round(math.Sqrt(data / c.IndexLen)))
	if mStar < 1 {
		mStar = 1
	}
	if mStar > c.Cutoff {
		mStar = c.Cutoff
	}
	// The rounded analytic optimum can be off by one on a discrete grid;
	// check the neighbours.
	best := -1
	var bestMetrics Metrics
	for _, m := range []int{mStar - 1, mStar, mStar + 1} {
		if m < 1 || m > c.Cutoff {
			continue
		}
		cfg := c
		cfg.M = m
		got, err := Analyze(cfg)
		if err != nil {
			return 0, Metrics{}, err
		}
		if best == -1 || got.AccessTime < bestMetrics.AccessTime {
			best, bestMetrics = m, got
		}
	}
	return best, bestMetrics, nil
}

// Sweep evaluates Analyze for every m in [1, mMax].
func Sweep(c Config, mMax int) ([]Metrics, error) {
	if mMax < 1 {
		return nil, fmt.Errorf("airindex: mMax %d", mMax)
	}
	if mMax > c.Cutoff {
		mMax = c.Cutoff
	}
	out := make([]Metrics, 0, mMax)
	for m := 1; m <= mMax; m++ {
		cfg := c
		cfg.M = m
		got, err := Analyze(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, got)
	}
	return out, nil
}
