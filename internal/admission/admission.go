// Package admission is the serving mode's class-aware front door. Every
// request passes three gates, cheapest-refusal first:
//
//  1. Overload shedding — a faults.Shedder hysteresis controller watches the
//     engine's pending load and, past the high-water mark, refuses the
//     lowest-priority classes first (class 0 is never shed).
//  2. Pending quota — each class holds at most MaxPending requests in
//     flight; the slot is returned by Release when the request reaches a
//     terminal outcome.
//  3. Rate limit — a per-class token bucket (the uplink.TokenBucket shape:
//     Rate tokens per broadcast unit, Burst depth) paces sustained arrival.
//
// The order matters: a request the shedder or quota refuses never spends a
// token, so rate capacity is not consumed by traffic that was doomed anyway.
//
// The controller is deliberately clock-free — Admit takes the current time
// as an argument — so the same code runs under the simulator's virtual clock
// in tests and the wall clock in cmd/qosd.
package admission

import (
	"fmt"
	"math"

	"hybridqos/internal/faults"
	"hybridqos/internal/uplink"
)

// Verdict is the outcome of one admission decision.
type Verdict int

const (
	// Admitted: the request may enter the engine. The caller owes a Release
	// for the class when the request reaches a terminal outcome.
	Admitted Verdict = iota
	// ShedOverload: refused by the hysteresis shedder; the system is past
	// its high-water mark and this class is currently being degraded.
	ShedOverload
	// QuotaExceeded: the class already has MaxPending requests in flight.
	QuotaExceeded
	// RateLimited: the class's token bucket is empty.
	RateLimited
)

// String names the verdict for logs and metrics.
func (v Verdict) String() string {
	switch v {
	case Admitted:
		return "admitted"
	case ShedOverload:
		return "shed_overload"
	case QuotaExceeded:
		return "quota_exceeded"
	case RateLimited:
		return "rate_limited"
	}
	return fmt.Sprintf("verdict(%d)", int(v))
}

// ClassConfig bounds one class. The zero value is fully open: no rate
// limit, no quota, the controller-wide default deadline. The JSON names are
// those of a qosd config's admission classes.
type ClassConfig struct {
	// Rate is the sustained admission rate in requests per broadcast unit;
	// 0 disables rate limiting for the class.
	Rate float64 `json:"rate,omitempty"`
	// Burst is the token-bucket depth (>= 1 when Rate is set); 0 with a
	// non-zero Rate defaults to 1 (no burst allowance).
	Burst float64 `json:"burst,omitempty"`
	// MaxPending caps the class's in-flight requests; 0 means unlimited.
	MaxPending int `json:"max_pending,omitempty"`
	// Deadline is the class's delay budget in broadcast units; 0 inherits
	// the controller's DefaultDeadline.
	Deadline float64 `json:"deadline,omitempty"`
}

// Config parameterises a Controller. It is also, as is, the admission
// section of a qosd config.
type Config struct {
	// Classes holds one entry per class, index = class id (0 = highest
	// priority). Must be non-empty.
	Classes []ClassConfig `json:"classes,omitempty"`
	// Shed enables overload shedding when non-nil; validated against
	// len(Classes).
	Shed *faults.ShedConfig `json:"shed,omitempty"`
	// DefaultDeadline is the delay budget for classes that do not set their
	// own. Must be positive and finite: deadlines are what bound drain time.
	DefaultDeadline float64 `json:"default_deadline"`
}

// Validate audits the configuration without building anything.
func (c Config) Validate() error {
	if len(c.Classes) == 0 {
		return fmt.Errorf("admission: no classes configured")
	}
	if !(c.DefaultDeadline > 0) || math.IsInf(c.DefaultDeadline, 0) {
		return fmt.Errorf("admission: default deadline %g not positive and finite", c.DefaultDeadline)
	}
	for i, cc := range c.Classes {
		if cc.Rate < 0 || math.IsNaN(cc.Rate) || math.IsInf(cc.Rate, 0) {
			return fmt.Errorf("admission: class %d rate %g invalid", i, cc.Rate)
		}
		if cc.Rate > 0 && cc.Burst != 0 && (cc.Burst < 1 || math.IsNaN(cc.Burst) || math.IsInf(cc.Burst, 0)) {
			return fmt.Errorf("admission: class %d burst %g below 1", i, cc.Burst)
		}
		if cc.MaxPending < 0 {
			return fmt.Errorf("admission: class %d max pending %d negative", i, cc.MaxPending)
		}
		if cc.Deadline < 0 || math.IsNaN(cc.Deadline) || math.IsInf(cc.Deadline, 0) {
			return fmt.Errorf("admission: class %d deadline %g invalid", i, cc.Deadline)
		}
	}
	if c.Shed != nil {
		if err := c.Shed.Validate(len(c.Classes)); err != nil {
			return err
		}
	}
	return nil
}

// classState is one class's runtime gates.
type classState struct {
	bucket     *uplink.TokenBucket // nil = no rate limit
	maxPending int                 // 0 = unlimited
	pending    int
	deadline   float64
}

// Controller applies the three admission gates. It is single-goroutine,
// like everything else that hangs off a Clock.
type Controller struct {
	classes []classState
	shedder *faults.Shedder // nil = shedding disabled

	// Decisions counts verdicts per class, indexed [class][verdict].
	decisions [][4]int64
}

// New validates cfg and builds an idle controller with full buckets.
func New(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ctl := &Controller{
		classes:   make([]classState, len(cfg.Classes)),
		decisions: make([][4]int64, len(cfg.Classes)),
	}
	for i, cc := range cfg.Classes {
		st := &ctl.classes[i]
		st.maxPending = cc.MaxPending
		st.deadline = cc.Deadline
		if st.deadline == 0 {
			st.deadline = cfg.DefaultDeadline
		}
		if cc.Rate > 0 {
			burst := cc.Burst
			if burst == 0 {
				burst = 1
			}
			b, err := uplink.NewTokenBucket(cc.Rate, burst)
			if err != nil {
				return nil, err
			}
			st.bucket = b
		}
	}
	if cfg.Shed != nil {
		sh, err := faults.NewShedder(*cfg.Shed, len(cfg.Classes))
		if err != nil {
			return nil, err
		}
		ctl.shedder = sh
	}
	return ctl, nil
}

// NumClasses returns the number of configured classes.
func (c *Controller) NumClasses() int { return len(c.classes) }

// Admit runs one request of the given class through the gates. now is the
// current time in broadcast units; load is the engine's pending load (what
// the shedder's watermarks are calibrated against). On Admitted the class's
// pending count rises and the caller owes a Release.
func (c *Controller) Admit(now float64, class int, load int) Verdict {
	st := c.class(class)
	v := c.decide(now, class, st, load)
	c.decisions[class][v]++
	if v == Admitted {
		st.pending++
	}
	return v
}

func (c *Controller) decide(now float64, class int, st *classState, load int) Verdict {
	if c.shedder != nil && !c.shedder.Admit(load, class) {
		return ShedOverload
	}
	if st.maxPending > 0 && st.pending >= st.maxPending {
		return QuotaExceeded
	}
	if st.bucket != nil && !st.bucket.TryRequest(now, nil) {
		return RateLimited
	}
	return Admitted
}

// Release returns an admitted request's quota slot. Call it exactly once
// per Admitted verdict, when the request reaches a terminal outcome (served,
// expired, or dropped at shutdown).
func (c *Controller) Release(class int) {
	st := c.class(class)
	if st.pending == 0 {
		panic(fmt.Sprintf("admission: Release of class %d with no pending requests", class))
	}
	st.pending--
}

// Deadline returns the class's delay budget in broadcast units.
func (c *Controller) Deadline(class int) float64 { return c.class(class).deadline }

// Pending returns the class's in-flight request count.
func (c *Controller) Pending(class int) int { return c.class(class).pending }

// ShedLevel returns the shedder's current level (0 when shedding is
// disabled): the number of lowest-priority classes being refused.
func (c *Controller) ShedLevel() int {
	if c.shedder == nil {
		return 0
	}
	return c.shedder.Level()
}

// Decisions returns how many times the class received the verdict.
func (c *Controller) Decisions(class int, v Verdict) int64 {
	if v < Admitted || v > RateLimited {
		panic(fmt.Sprintf("admission: unknown verdict %d", int(v)))
	}
	c.class(class) // bounds check with the standard panic message
	return c.decisions[class][v]
}

func (c *Controller) class(class int) *classState {
	if class < 0 || class >= len(c.classes) {
		panic(fmt.Sprintf("admission: class %d outside [0,%d)", class, len(c.classes)))
	}
	return &c.classes[class]
}
