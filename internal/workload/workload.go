// Package workload provides request-arrival models beyond the paper's plain
// Poisson process, so the scheduler can be exercised under the traffic
// shapes real wireless data services see: bursty (Markov-modulated Poisson),
// batched (flash crowds requesting together), and popularity drift (the hot
// set rotating over the day). The paper's own assumption 2 (Poisson, λ′ = 5)
// remains the default everywhere.
package workload

import (
	"fmt"
	"math"

	"hybridqos/internal/catalog"
	"hybridqos/internal/rng"
)

// ArrivalProcess generates the request-arrival point process. Next returns
// the gap to the next arrival event and the number of requests that event
// carries (≥ 1). Implementations may hold state (e.g. the MMPP modulating
// chain) and are not safe for concurrent use; construct one per simulation.
type ArrivalProcess interface {
	// Name identifies the process in reports.
	Name() string
	// Next draws the next event: a strictly positive gap and a batch ≥ 1.
	Next(r *rng.Source) (gap float64, batch int)
	// Rate returns the long-run average request rate (requests per unit
	// time), for analytic-model feeds.
	Rate() float64
}

// Poisson is the paper's arrival model: exponential gaps at rate Lambda,
// one request per event.
type Poisson struct {
	// Lambda is the arrival rate.
	Lambda float64
}

// NewPoisson validates the rate.
func NewPoisson(lambda float64) (Poisson, error) {
	if lambda <= 0 || math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		return Poisson{}, fmt.Errorf("workload: invalid Poisson rate %g", lambda)
	}
	return Poisson{Lambda: lambda}, nil
}

// Name implements ArrivalProcess.
func (p Poisson) Name() string { return fmt.Sprintf("poisson(λ=%g)", p.Lambda) }

// Next implements ArrivalProcess.
func (p Poisson) Next(r *rng.Source) (float64, int) { return r.Exp(p.Lambda), 1 }

// Rate implements ArrivalProcess.
func (p Poisson) Rate() float64 { return p.Lambda }

// MMPP is a Markov-modulated Poisson process: a background CTMC over states
// 0..n−1 where state s emits Poisson arrivals at Rates[s] and leaves for
// state (s+1) mod n at SwitchRates[s]. A two-state MMPP with a high and a
// low rate is the classical bursty-traffic model.
type MMPP struct {
	rates       []float64
	switchRates []float64
	state       int
}

// NewMMPP builds an MMPP. rates[s] may be zero (silent state); switchRates
// must be positive.
func NewMMPP(rates, switchRates []float64) (*MMPP, error) {
	if len(rates) < 2 || len(rates) != len(switchRates) {
		return nil, fmt.Errorf("workload: MMPP needs n≥2 equal-length rate vectors, got %d/%d",
			len(rates), len(switchRates))
	}
	for i, x := range rates {
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("workload: invalid MMPP rate %g in state %d", x, i)
		}
	}
	allZero := true
	for _, x := range rates {
		if x > 0 {
			allZero = false
		}
	}
	if allZero {
		return nil, fmt.Errorf("workload: MMPP with all-zero emission rates")
	}
	for i, x := range switchRates {
		if x <= 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("workload: invalid MMPP switch rate %g in state %d", x, i)
		}
	}
	return &MMPP{
		rates:       append([]float64(nil), rates...),
		switchRates: append([]float64(nil), switchRates...),
	}, nil
}

// Bursty returns the canonical two-state MMPP with the given mean rate and
// burstiness factor f > 1: the burst state emits at f·mean, the quiet state
// at mean/f, with equal sojourn rates so the long-run mean is preserved.
func Bursty(mean, f, switchRate float64) (*MMPP, error) {
	if mean <= 0 || f <= 1 || switchRate <= 0 {
		return nil, fmt.Errorf("workload: Bursty(mean=%g, f=%g, switch=%g)", mean, f, switchRate)
	}
	return NewMMPP([]float64{mean * f, mean / f}, []float64{switchRate, switchRate})
}

// Name implements ArrivalProcess.
func (m *MMPP) Name() string { return fmt.Sprintf("mmpp(%d states)", len(m.rates)) }

// Next implements ArrivalProcess. It races the next arrival against the next
// modulating-chain switch, advancing state as needed.
func (m *MMPP) Next(r *rng.Source) (float64, int) {
	elapsed := 0.0
	for {
		tSwitch := r.Exp(m.switchRates[m.state])
		if m.rates[m.state] == 0 {
			// Silent state: only the switch can happen.
			elapsed += tSwitch
			m.state = (m.state + 1) % len(m.rates)
			continue
		}
		tArrive := r.Exp(m.rates[m.state])
		if tArrive <= tSwitch {
			return elapsed + tArrive, 1
		}
		elapsed += tSwitch
		m.state = (m.state + 1) % len(m.rates)
	}
}

// Rate implements ArrivalProcess: the sojourn-weighted mean emission rate.
func (m *MMPP) Rate() float64 {
	// Sojourn time in state s is 1/switchRates[s]; stationary probability is
	// proportional to it (single-cycle chain).
	var num, den float64
	for s, rate := range m.rates {
		w := 1 / m.switchRates[s]
		num += w * rate
		den += w
	}
	return num / den
}

// BatchPoisson is a compound Poisson process: events at rate EventRate, each
// carrying 1 + Geometric(1−1/MeanBatch) requests — a flash-crowd model where
// correlated clients request together.
type BatchPoisson struct {
	// EventRate is the batch-event rate.
	EventRate float64
	// MeanBatch is the mean requests per event (≥ 1).
	MeanBatch float64
}

// NewBatchPoisson validates the parameters.
//
//lint:allow deadcode shared test fixture: bulk arrivals for TestBatchArrivalsPreserveThroughput and BenchmarkArrivalProcesses
func NewBatchPoisson(eventRate, meanBatch float64) (BatchPoisson, error) {
	if eventRate <= 0 || math.IsNaN(eventRate) || math.IsInf(eventRate, 0) {
		return BatchPoisson{}, fmt.Errorf("workload: invalid event rate %g", eventRate)
	}
	if meanBatch < 1 || math.IsNaN(meanBatch) || math.IsInf(meanBatch, 0) {
		return BatchPoisson{}, fmt.Errorf("workload: mean batch %g below 1", meanBatch)
	}
	return BatchPoisson{EventRate: eventRate, MeanBatch: meanBatch}, nil
}

// Name implements ArrivalProcess.
func (b BatchPoisson) Name() string {
	return fmt.Sprintf("batch-poisson(λe=%g, E[batch]=%g)", b.EventRate, b.MeanBatch)
}

// Next implements ArrivalProcess.
func (b BatchPoisson) Next(r *rng.Source) (float64, int) {
	gap := r.Exp(b.EventRate)
	batch := 1
	if b.MeanBatch > 1 {
		// Geometric with success prob 1/MeanBatch gives mean MeanBatch−1
		// extra requests: P[extra = k] = (1−p)^k·p with p = 1/MeanBatch.
		p := 1 / b.MeanBatch
		for r.Float64() > p {
			batch++
		}
	}
	return gap, batch
}

// Rate implements ArrivalProcess.
func (b BatchPoisson) Rate() float64 { return b.EventRate * b.MeanBatch }

// ItemSampler draws the item rank of a request at simulated time now.
// Implementations model how popularity evolves.
type ItemSampler interface {
	// Name identifies the sampler.
	Name() string
	// SampleItem draws a 1-based catalog rank.
	SampleItem(r *rng.Source, now float64) int
}

// StaticPopularity is the paper's model: the catalog's fixed Zipf law.
type StaticPopularity struct {
	// Catalog supplies the law.
	Catalog *catalog.Catalog
}

// Name implements ItemSampler.
func (s StaticPopularity) Name() string { return "static-zipf" }

// SampleItem implements ItemSampler.
func (s StaticPopularity) SampleItem(r *rng.Source, _ float64) int {
	return s.Catalog.SampleRank(r)
}

// RotatingPopularity models hot-set churn: every Period broadcast units the
// popularity ranking rotates by Shift positions, so yesterday's hot items
// cool down. The server's PUSH SET DOES NOT FOLLOW — that is exactly the
// mismatch the paper's periodic cutoff re-optimisation (and the adaptive
// package) exists to correct.
type RotatingPopularity struct {
	// Catalog supplies the base law.
	Catalog *catalog.Catalog
	// Period is the rotation interval (> 0).
	Period float64
	// Shift is the rank rotation per period (≥ 1).
	Shift int
}

// NewRotatingPopularity validates the parameters.
func NewRotatingPopularity(cat *catalog.Catalog, period float64, shift int) (*RotatingPopularity, error) {
	if cat == nil {
		return nil, fmt.Errorf("workload: nil catalog")
	}
	if period <= 0 || math.IsNaN(period) || math.IsInf(period, 0) {
		return nil, fmt.Errorf("workload: invalid rotation period %g", period)
	}
	if shift < 1 {
		return nil, fmt.Errorf("workload: rotation shift %d", shift)
	}
	return &RotatingPopularity{Catalog: cat, Period: period, Shift: shift}, nil
}

// Name implements ItemSampler.
func (s *RotatingPopularity) Name() string {
	return fmt.Sprintf("rotating-zipf(period=%g, shift=%d)", s.Period, s.Shift)
}

// SampleItem implements ItemSampler: the popularity rank drawn from the base
// law is mapped to a rotated catalog position.
func (s *RotatingPopularity) SampleItem(r *rng.Source, now float64) int {
	rank := s.Catalog.SampleRank(r)
	epochs := int(now / s.Period)
	d := s.Catalog.D()
	return (rank-1+epochs*s.Shift)%d + 1
}
