// Package clients models the client population and its service
// classification. The paper (assumptions 5–6) divides clients into three
// classes — Class-A (highest priority), Class-B (medium) and Class-C
// (lowest) — with priority weights in ratio 3:2:1 and a Zipf-skewed
// population split (fewest Class-A clients, most Class-C).
//
// The package is written for an arbitrary number of classes so multi-class
// experiments (section 4.2.2, "Effect of Multiple Service Classes") reuse the
// same machinery.
package clients

import (
	"fmt"
	"math"

	"hybridqos/internal/rng"
)

// Class identifies a service class, 0-based. Class 0 is the highest-priority
// class (the paper's Class-A).
type Class int

// String renders classes A, B, C, ... as in the paper.
func (c Class) String() string {
	if c < 0 {
		return fmt.Sprintf("Class(%d)", int(c))
	}
	if c < 26 {
		return "Class-" + string(rune('A'+int(c)))
	}
	return fmt.Sprintf("Class-%d", int(c))
}

// Classification describes the service classes: their priority weights and
// the probability that an incoming request belongs to each class.
type Classification struct {
	weights []float64
	probs   []float64
	alias   *rng.Alias
}

// Config parameterises a Classification.
type Config struct {
	// Weights are the per-class priority weights q_c, highest-priority class
	// first. The paper's ratio "1::2::3" with Class-A highest is realised as
	// weights {3, 2, 1}.
	Weights []float64
	// PopulationSkew is the Zipf θ governing how clients split across
	// classes. The paper's assumption 6 puts the FEWEST clients in the
	// highest class, so class c (0-based) receives probability proportional
	// to (1/(numClasses-c))^θ — i.e. Zipf mass in REVERSE class order.
	// Skew 0 splits clients uniformly.
	PopulationSkew float64
}

// PaperConfig is the paper's three-class setup: priorities 3:2:1 and a
// Zipf(1) population split (A smallest, C largest).
func PaperConfig() Config {
	return Config{Weights: []float64{3, 2, 1}, PopulationSkew: 1.0}
}

// New builds a Classification. It returns an error if there are no classes,
// any weight is non-positive/NaN/Inf, weights are not strictly decreasing
// (class 0 must be the most important), or the skew is invalid.
func New(cfg Config) (*Classification, error) {
	n := len(cfg.Weights)
	if n == 0 {
		return nil, fmt.Errorf("clients: no classes configured")
	}
	for i, w := range cfg.Weights {
		if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("clients: invalid weight %g for class %d", w, i)
		}
		if i > 0 && w >= cfg.Weights[i-1] {
			return nil, fmt.Errorf("clients: weights must strictly decrease (class 0 most important); class %d has %g >= %g", i, w, cfg.Weights[i-1])
		}
	}
	if cfg.PopulationSkew < 0 || math.IsNaN(cfg.PopulationSkew) || math.IsInf(cfg.PopulationSkew, 0) {
		return nil, fmt.Errorf("clients: invalid population skew %g", cfg.PopulationSkew)
	}

	weights := make([]float64, n)
	copy(weights, cfg.Weights)

	// Reverse-order Zipf: class n-1 (lowest priority) gets rank-1 mass.
	probs := make([]float64, n)
	sum := 0.0
	for c := 0; c < n; c++ {
		probs[c] = math.Pow(1/float64(n-c), cfg.PopulationSkew)
		sum += probs[c]
	}
	for c := range probs {
		probs[c] /= sum
	}
	return &Classification{
		weights: weights,
		probs:   probs,
		alias:   rng.MustAlias(probs),
	}, nil
}

// Must is New that panics on error.
//
//lint:allow deadcode shared test fixture: tests in several packages build classifications with it
func Must(cfg Config) *Classification {
	cl, err := New(cfg)
	if err != nil {
		panic(fmt.Errorf("clients: Must: %w", err))
	}
	return cl
}

// NumClasses returns the number of service classes.
func (cl *Classification) NumClasses() int { return len(cl.weights) }

// Weight returns the priority weight q_c of class c.
func (cl *Classification) Weight(c Class) float64 {
	cl.check(c)
	return cl.weights[c]
}

// Weights returns a copy of all class weights, class 0 first.
func (cl *Classification) Weights() []float64 {
	out := make([]float64, len(cl.weights))
	copy(out, cl.weights)
	return out
}

// Prob returns the probability that a request originates from class c.
func (cl *Classification) Prob(c Class) float64 {
	cl.check(c)
	return cl.probs[c]
}

// Probs returns a copy of the per-class request probabilities.
func (cl *Classification) Probs() []float64 {
	out := make([]float64, len(cl.probs))
	copy(out, cl.probs)
	return out
}

// SampleClass draws the class of an incoming request.
func (cl *Classification) SampleClass(r *rng.Source) Class {
	return Class(cl.alias.Sample(r))
}

func (cl *Classification) check(c Class) {
	if c < 0 || int(c) >= len(cl.weights) {
		panic(fmt.Sprintf("clients: class %d out of [0,%d)", int(c), len(cl.weights)))
	}
}
