// Package faults models the lossy downlink the paper assumes away. The
// paper's assumption list (§2) posits an error-free broadcast channel, but
// the asymmetric wireless cell it targets is defined by bursty link errors:
// WiMAX scheduling evaluations and partially-lossy queueing models both show
// that loss handling changes which scheduler wins. This package supplies the
// three fault-layer primitives the simulator composes:
//
//   - LossModel — per-transmission downlink corruption: i.i.d. Bernoulli
//     loss and a two-state Gilbert–Elliott bursty-error chain, both
//     deterministic under internal/rng so seeded runs stay reproducible;
//   - RetryPolicy — client-side recovery for corrupted pull deliveries:
//     bounded attempts with exponential backoff and uniform jitter;
//   - Shedder — server-side graceful degradation: a class-aware admission
//     controller that sheds lowest-class requests when pending load crosses
//     a high-water mark and restores admission at a low-water mark
//     (hysteresis).
//
// A Gilbert–Elliott chain keeps state between calls; core gives every run
// its own copy (GilbertElliott.Fresh), so one loss model may be configured
// for any number of runs. A Shedder is built by each run from its
// ShedConfig.
package faults

import (
	"fmt"
	"math"

	"hybridqos/internal/rng"
)

// LossModel decides whether a downlink transmission is corrupted. Calls are
// made once per completed transmission in simulated-time order; stateful
// models (Gilbert–Elliott) advance their chain one step per call.
type LossModel interface {
	// Name identifies the model in reports.
	Name() string
	// Corrupted reports whether the transmission completing at simulated
	// time now was corrupted (no client could decode it).
	Corrupted(now float64, r *rng.Source) bool
	// MeanLoss returns the model's long-run corruption probability.
	MeanLoss() float64
}

// Bernoulli corrupts each transmission independently with probability P.
type Bernoulli struct {
	p float64
}

// NewBernoulli validates p ∈ [0,1] and returns the i.i.d. loss model.
func NewBernoulli(p float64) (*Bernoulli, error) {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return nil, fmt.Errorf("faults: loss probability %g outside [0,1]", p)
	}
	return &Bernoulli{p: p}, nil
}

// Name implements LossModel.
func (b *Bernoulli) Name() string { return fmt.Sprintf("bernoulli(p=%g)", b.p) }

// MeanLoss implements LossModel.
func (b *Bernoulli) MeanLoss() float64 { return b.p }

// Corrupted implements LossModel. It draws exactly one variate per call so
// the stream stays aligned regardless of outcomes.
func (b *Bernoulli) Corrupted(_ float64, r *rng.Source) bool {
	return r.Float64() < b.p
}

// GilbertElliott is the classical two-state bursty-error chain: a Good state
// with low corruption probability and a Bad state with high corruption
// probability, with per-transmission transition probabilities between them.
// The chain starts Good. Expected Bad-burst length is 1/BadToGood
// transmissions; the stationary Bad fraction is
// GoodToBad/(GoodToBad+BadToGood).
type GilbertElliott struct {
	goodToBad, badToGood float64
	lossGood, lossBad    float64
	bad                  bool
}

// NewGilbertElliott validates the transition and per-state corruption
// probabilities and returns the chain in the Good state.
func NewGilbertElliott(goodToBad, badToGood, lossGood, lossBad float64) (*GilbertElliott, error) {
	for _, pr := range [...]struct {
		name string
		v    float64
	}{
		{"good→bad", goodToBad}, {"bad→good", badToGood},
		{"good-state loss", lossGood}, {"bad-state loss", lossBad},
	} {
		if pr.v < 0 || pr.v > 1 || math.IsNaN(pr.v) {
			return nil, fmt.Errorf("faults: %s probability %g outside [0,1]", pr.name, pr.v)
		}
	}
	if goodToBad > 0 && badToGood == 0 {
		return nil, fmt.Errorf("faults: absorbing bad state (bad→good = 0 with good→bad %g)", goodToBad)
	}
	return &GilbertElliott{
		goodToBad: goodToBad, badToGood: badToGood,
		lossGood: lossGood, lossBad: lossBad,
	}, nil
}

// NewBurstLoss is the common parameterisation by observables: a target mean
// corruption probability meanLoss < 1 and a mean burst length meanBurst ≥ 1
// (in transmissions). The Bad state always corrupts, the Good state never
// does; BadToGood = 1/meanBurst and GoodToBad is set so the stationary Bad
// fraction equals meanLoss.
func NewBurstLoss(meanLoss, meanBurst float64) (*GilbertElliott, error) {
	if meanLoss < 0 || meanLoss >= 1 || math.IsNaN(meanLoss) {
		return nil, fmt.Errorf("faults: mean loss %g outside [0,1)", meanLoss)
	}
	if meanBurst < 1 || math.IsNaN(meanBurst) || math.IsInf(meanBurst, 0) {
		return nil, fmt.Errorf("faults: mean burst length %g below 1", meanBurst)
	}
	badToGood := 1 / meanBurst
	goodToBad := badToGood * meanLoss / (1 - meanLoss)
	if goodToBad > 1 {
		return nil, fmt.Errorf("faults: mean loss %g unreachable with burst length %g", meanLoss, meanBurst)
	}
	return NewGilbertElliott(goodToBad, badToGood, 0, 1)
}

// Name implements LossModel.
func (g *GilbertElliott) Name() string {
	return fmt.Sprintf("gilbert-elliott(gb=%g, bg=%g, lossG=%g, lossB=%g)",
		g.goodToBad, g.badToGood, g.lossGood, g.lossBad)
}

// MeanLoss implements LossModel: the stationary corruption probability.
func (g *GilbertElliott) MeanLoss() float64 {
	denom := g.goodToBad + g.badToGood
	if denom == 0 {
		return g.lossGood // chain never leaves Good
	}
	piBad := g.goodToBad / denom
	return piBad*g.lossBad + (1-piBad)*g.lossGood
}

// Corrupted implements LossModel: advance the chain one step, then corrupt
// with the state's probability. Exactly two variates are drawn per call so
// the stream stays aligned regardless of the trajectory.
func (g *GilbertElliott) Corrupted(_ float64, r *rng.Source) bool {
	u := r.Float64()
	if g.bad {
		if u < g.badToGood {
			g.bad = false
		}
	} else if u < g.goodToBad {
		g.bad = true
	}
	loss := g.lossGood
	if g.bad {
		loss = g.lossBad
	}
	return r.Float64() < loss
}

// Fresh returns a copy of the chain in its initial, Good state. core calls
// it once per run, so each run of one configuration starts its own chain; a
// forwarding wrapper around a GilbertElliott must forward it.
func (g *GilbertElliott) Fresh() LossModel {
	c := *g
	c.bad = false
	return &c
}

// RetryPolicy governs client re-requests after a corrupted pull delivery:
// up to MaxAttempts re-requests per original request, spaced by exponential
// backoff with uniform jitter. The zero value disables retries (a corrupted
// delivery immediately counts as failed).
type RetryPolicy struct {
	// MaxAttempts is the number of re-requests allowed per request after
	// corrupted deliveries; 0 disables retries.
	MaxAttempts int
	// Base is the backoff before the first re-request, in broadcast units.
	Base float64
	// Multiplier grows the backoff per attempt (≥ 1; exponential backoff).
	Multiplier float64
	// Max, when positive, caps the un-jittered backoff.
	Max float64
	// Jitter in [0,1] spreads each backoff uniformly over
	// [1−Jitter/2, 1+Jitter/2] times its nominal value, decorrelating the
	// re-request bursts that follow a shared corrupted broadcast.
	Jitter float64
}

// Enabled reports whether the policy allows any retries.
func (p RetryPolicy) Enabled() bool { return p.MaxAttempts > 0 }

// Validate reports whether the policy is usable. The zero value is valid
// (retries disabled).
func (p RetryPolicy) Validate() error {
	if p.MaxAttempts < 0 {
		return fmt.Errorf("faults: negative retry attempts %d", p.MaxAttempts)
	}
	if !p.Enabled() {
		return nil
	}
	if p.Base <= 0 || math.IsNaN(p.Base) || math.IsInf(p.Base, 0) {
		return fmt.Errorf("faults: invalid retry backoff base %g", p.Base)
	}
	if p.Multiplier < 1 || math.IsNaN(p.Multiplier) || math.IsInf(p.Multiplier, 0) {
		return fmt.Errorf("faults: retry backoff multiplier %g below 1", p.Multiplier)
	}
	if p.Max < 0 || math.IsNaN(p.Max) || math.IsInf(p.Max, 0) {
		return fmt.Errorf("faults: invalid retry backoff cap %g", p.Max)
	}
	if p.Jitter < 0 || p.Jitter > 1 || math.IsNaN(p.Jitter) {
		return fmt.Errorf("faults: retry jitter %g outside [0,1]", p.Jitter)
	}
	return nil
}

// Backoff returns the delay before re-request number attempt (0-based: the
// first retry is attempt 0). One variate is drawn when Jitter > 0.
func (p RetryPolicy) Backoff(attempt int, r *rng.Source) float64 {
	d := p.Base * math.Pow(p.Multiplier, float64(attempt))
	if p.Max > 0 && d > p.Max {
		d = p.Max
	}
	if p.Jitter > 0 {
		d *= 1 + p.Jitter*(r.Float64()-0.5)
	}
	return d
}

// ShedConfig parameterises the class-aware admission controller.
type ShedConfig struct {
	// High is the pending-load high-water mark (pull-queue requests plus
	// outstanding retries): reaching it sheds one more class, lowest first.
	High int `json:"high"`
	// Low is the low-water mark: dropping to it restores one class. Low must
	// be strictly below High so the controller has hysteresis.
	Low int `json:"low"`
	// MaxShedClasses bounds how many of the lowest-priority classes can be
	// shed simultaneously; 0 means 1 (only the bottom class). The
	// highest-priority class is never sheddable.
	MaxShedClasses int `json:"max_shed_classes,omitempty"`
}

// Validate reports whether the watermarks are usable for numClasses classes.
func (c ShedConfig) Validate(numClasses int) error {
	if c.High <= 0 {
		return fmt.Errorf("faults: shed high-water mark %d not positive", c.High)
	}
	if c.Low < 0 || c.Low >= c.High {
		return fmt.Errorf("faults: shed low-water mark %d outside [0,%d)", c.Low, c.High)
	}
	if c.MaxShedClasses < 0 || c.MaxShedClasses >= numClasses {
		return fmt.Errorf("faults: %d sheddable classes with %d classes (class 0 is never shed)",
			c.MaxShedClasses, numClasses)
	}
	return nil
}

// maxLevel resolves the configured shed-class bound (0 means 1).
func (c ShedConfig) maxLevel() int {
	if c.MaxShedClasses == 0 {
		return 1
	}
	return c.MaxShedClasses
}

// Shedder is the admission controller's runtime state: a shed level in
// [0, MaxShedClasses] that rises one class per high-water crossing and falls
// one class per low-water crossing. At level ℓ the ℓ lowest-priority classes
// are refused admission.
type Shedder struct {
	cfg        ShedConfig
	numClasses int
	level      int
}

// NewShedder validates the configuration and returns an idle controller.
func NewShedder(cfg ShedConfig, numClasses int) (*Shedder, error) {
	if numClasses <= 0 {
		return nil, fmt.Errorf("faults: shedder needs at least one class, got %d", numClasses)
	}
	if err := cfg.Validate(numClasses); err != nil {
		return nil, err
	}
	return &Shedder{cfg: cfg, numClasses: numClasses}, nil
}

// Level returns the current shed level (number of classes being shed).
func (s *Shedder) Level() int { return s.level }

// Admit updates the hysteresis state for the observed pending load and
// reports whether a request of the given 0-based class (0 = highest
// priority) is admitted. Load is sampled at every admission decision, so the
// level moves at most one class per arriving request.
func (s *Shedder) Admit(load int, class int) bool {
	if load >= s.cfg.High && s.level < s.cfg.maxLevel() {
		s.level++
	} else if load <= s.cfg.Low && s.level > 0 {
		s.level--
	}
	return class < s.numClasses-s.level
}

var (
	_ LossModel = (*Bernoulli)(nil)
	_ LossModel = (*GilbertElliott)(nil)
)
