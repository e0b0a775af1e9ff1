// Package uplink models the shared request back-channel of the asymmetric
// wireless cell. The hybrid-broadcast literature the paper builds on
// (Acharya–Franklin–Zdonik '97) gives clients only "a limited back-channel
// capacity to make requests": requests that cannot obtain uplink capacity
// never reach the server's pull queue. TokenBucket models that back-channel
// as a deterministic leaky-bucket admission: sustained rate plus bounded
// burst, the standard abstraction for a dedicated request channel.
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
		return true
	}
	return false
}
