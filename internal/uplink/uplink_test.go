package uplink

import (
	"math"
	"testing"

	"hybridqos/internal/rng"
)

func TestUnlimited(t *testing.T) {
	var u Unlimited
	r := rng.New(1)
	for i := 0; i < 100; i++ {
		if !u.TryRequest(float64(i), r) {
			t.Fatal("unlimited channel lost a request")
		}
	}
	if u.Name() == "" {
		t.Fatal("empty name")
	}
}

func TestNewTokenBucketValidation(t *testing.T) {
	cases := [][2]float64{{0, 5}, {-1, 5}, {math.NaN(), 5}, {1, 0.5}, {1, math.Inf(1)}}
	for i, c := range cases {
		if _, err := NewTokenBucket(c[0], c[1]); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestTokenBucketBurstThenThrottle(t *testing.T) {
	tb, err := NewTokenBucket(1, 3) // 1/unit sustained, burst 3
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	// Burst of 5 at t=0: first 3 admitted, next 2 lost.
	admitted := 0
	for i := 0; i < 5; i++ {
		if tb.TryRequest(0, r) {
			admitted++
		}
	}
	if admitted != 3 {
		t.Fatalf("burst admitted %d, want 3", admitted)
	}
	// After 1 unit, exactly one more token has accumulated.
	if !tb.TryRequest(1, r) {
		t.Fatal("refilled token not granted")
	}
	if tb.TryRequest(1, r) {
		t.Fatal("second request at t=1 should be lost")
	}
}

func TestTokenBucketSustainedRate(t *testing.T) {
	tb, _ := NewTokenBucket(2, 4)
	r := rng.New(2)
	// Offer 4/unit for 1000 units: about half must be lost.
	admitted := 0
	const offered = 4000
	for i := 0; i < offered; i++ {
		if tb.TryRequest(float64(i)*0.25, r) {
			admitted++
		}
	}
	rate := float64(admitted) / 1000
	if math.Abs(rate-2) > 0.05 {
		t.Fatalf("sustained admitted rate %g, want ~2", rate)
	}
}

func TestTokenBucketCapsAtBurst(t *testing.T) {
	tb, _ := NewTokenBucket(1, 2)
	r := rng.New(3)
	// Long idle: tokens must cap at burst (2), not accumulate unboundedly.
	_ = tb.TryRequest(0, r)
	admitted := 0
	for i := 0; i < 10; i++ {
		if tb.TryRequest(1000, r) {
			admitted++
		}
	}
	if admitted != 2 {
		t.Fatalf("after long idle admitted %d, want burst cap 2", admitted)
	}
}

func TestTokenBucketBackwardsTimeClamped(t *testing.T) {
	tb, _ := NewTokenBucket(1, 2)
	r := rng.New(4)
	tb.TryRequest(5, r) // spends 1 of 2 burst tokens
	// A backwards clock is clamped to t=5: the second token is still there,
	// and no tokens may accrue for the negative interval.
	if !tb.TryRequest(4, r) {
		t.Fatal("clamped request should spend the remaining burst token")
	}
	if tb.TryRequest(4, r) {
		t.Fatal("backwards time must not accrue tokens")
	}
	if tb.TryRequest(math.NaN(), r) {
		t.Fatal("NaN time must not accrue tokens")
	}
	// The clock resumes from the clamped time, not the bogus one.
	if !tb.TryRequest(6, r) {
		t.Fatal("token not refilled after clock recovered")
	}
}
