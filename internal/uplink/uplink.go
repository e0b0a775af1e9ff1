// Package uplink models the shared request back-channel of the asymmetric
// wireless cell. The hybrid-broadcast literature the paper builds on
// (Acharya–Franklin–Zdonik '97) gives clients only "a limited back-channel
// capacity to make requests": requests that cannot obtain uplink capacity
// never reach the server's pull queue. Two contention models are provided:
//
//   - TokenBucket — a deterministic leaky-bucket admission: sustained rate
//     plus bounded burst; the standard abstraction for a dedicated
//     request channel.
//   - SlottedAloha — random-access contention: a request transmits in a
//     slot and succeeds with probability e^{−G}, where G is the current
//     offered load estimated by an exponentially weighted moving average.
//
// Both are deterministic given the simulation's RNG stream.
package uplink

import (
	"fmt"
	"math"

	"hybridqos/internal/rng"
)

// Channel decides whether a client request reaches the server.
type Channel interface {
	// Name identifies the model in reports.
	Name() string
	// TryRequest attempts to deliver a request at simulated time now.
	// It returns false when the request is lost on the uplink.
	TryRequest(now float64, r *rng.Source) bool
}

// Unlimited always delivers (the paper's implicit assumption).
type Unlimited struct{}

// Name implements Channel.
func (Unlimited) Name() string { return "unlimited" }

// TryRequest implements Channel.
func (Unlimited) TryRequest(float64, *rng.Source) bool { return true }

// TokenBucket admits up to Rate requests per broadcast unit with a burst
// allowance of Burst.
type TokenBucket struct {
	rate   float64
	burst  float64
	tokens float64
	last   float64
	// Admitted and Lost count outcomes.
	Admitted, Lost int64
}

// NewTokenBucket validates and builds the bucket, initially full.
func NewTokenBucket(rate, burst float64) (*TokenBucket, error) {
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return nil, fmt.Errorf("uplink: invalid rate %g", rate)
	}
	if burst < 1 || math.IsNaN(burst) || math.IsInf(burst, 0) {
		return nil, fmt.Errorf("uplink: burst %g below 1", burst)
	}
	return &TokenBucket{rate: rate, burst: burst, tokens: burst}, nil
}

// Name implements Channel.
func (tb *TokenBucket) Name() string {
	return fmt.Sprintf("token-bucket(rate=%g, burst=%g)", tb.rate, tb.burst)
}

// TryRequest implements Channel. A now earlier than the previous call (a
// non-monotonic caller clock) or NaN is clamped to the previous time: no
// tokens accrue for the bogus interval, but the bucket stays usable.
func (tb *TokenBucket) TryRequest(now float64, _ *rng.Source) bool {
	if now < tb.last || math.IsNaN(now) {
		now = tb.last
	}
	tb.tokens = math.Min(tb.burst, tb.tokens+(now-tb.last)*tb.rate)
	tb.last = now
	if tb.tokens >= 1 {
		tb.tokens--
		tb.Admitted++
		return true
	}
	tb.Lost++
	return false
}

// LossRate returns Lost/(Admitted+Lost), 0 when unused.
func (tb *TokenBucket) LossRate() float64 {
	total := tb.Admitted + tb.Lost
	if total == 0 {
		return 0
	}
	return float64(tb.Lost) / float64(total)
}

// SlottedAloha succeeds with probability e^{−G}: G is the offered load in
// requests per slot, tracked by an EWMA over a sliding rate estimate.
type SlottedAloha struct {
	slotTime float64
	ewmaTau  float64
	rate     float64 // EWMA'd request rate (per broadcast unit)
	last     float64
	// Attempts and Lost count outcomes.
	Attempts, Lost int64
}

// NewSlottedAloha builds the channel: slotTime is the uplink slot duration
// in broadcast units, ewmaTau the load-estimator time constant.
//
//lint:allow deadcode pending deletion with its only tests, TestNewSlottedAlohaValidation and TestSlottedAloha* (see ROADMAP)
func NewSlottedAloha(slotTime, ewmaTau float64) (*SlottedAloha, error) {
	if slotTime <= 0 || math.IsNaN(slotTime) || math.IsInf(slotTime, 0) {
		return nil, fmt.Errorf("uplink: invalid slot time %g", slotTime)
	}
	if ewmaTau <= 0 || math.IsNaN(ewmaTau) || math.IsInf(ewmaTau, 0) {
		return nil, fmt.Errorf("uplink: invalid EWMA tau %g", ewmaTau)
	}
	return &SlottedAloha{slotTime: slotTime, ewmaTau: ewmaTau}, nil
}

// Name implements Channel.
func (sa *SlottedAloha) Name() string {
	return fmt.Sprintf("slotted-aloha(slot=%g)", sa.slotTime)
}

// TryRequest implements Channel. A now earlier than the previous call (a
// non-monotonic caller clock) or NaN is clamped to the previous time, so the
// load estimate sees a zero-length gap instead of a negative one.
func (sa *SlottedAloha) TryRequest(now float64, r *rng.Source) bool {
	if now < sa.last || math.IsNaN(now) {
		now = sa.last
	}
	// Update the EWMA rate estimate: an arrival contributes 1/τ, the
	// existing estimate decays by e^{−Δt/τ}.
	dt := now - sa.last
	sa.rate = sa.rate*math.Exp(-dt/sa.ewmaTau) + 1/sa.ewmaTau
	sa.last = now

	sa.Attempts++
	g := sa.rate * sa.slotTime // offered load per slot
	if r.Float64() < math.Exp(-g) {
		return true
	}
	sa.Lost++
	return false
}

// LossRate returns Lost/Attempts, 0 when unused.
func (sa *SlottedAloha) LossRate() float64 {
	if sa.Attempts == 0 {
		return 0
	}
	return float64(sa.Lost) / float64(sa.Attempts)
}
