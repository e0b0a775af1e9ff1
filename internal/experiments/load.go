package experiments

import (
	"fmt"

	"hybridqos/internal/clients"
	"hybridqos/internal/core"
	"hybridqos/internal/sim"
)

// ExtLoad sweeps the offered load λ′ around the paper's operating point
// (λ′ = 5) and checks robustness of the headline properties: delays grow
// with load but stay bounded (the multicast effect — one transmission
// clears every pending request — prevents the unbounded blow-up a
// unicast queue would suffer), and the class ordering survives at every
// load level.
func ExtLoad(p Params) (*Figure, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	lambdas := []float64{1, 2, 5, 8, 12, 20}
	fig := &Figure{
		ID:     "EXT-LOAD",
		Title:  "Per-class delay vs offered load λ′ (θ=0.60, α=0.25, K=40)",
		XLabel: "lambda",
		YLabel: "delay (broadcast units)",
	}
	classNames := []string{"Class-A", "Class-B", "Class-C"}
	cfgs := make([]core.Config, len(lambdas))
	for i, lambda := range lambdas {
		cfg, err := p.buildConfig(0.60, 0.25)
		if err != nil {
			return nil, err
		}
		cfg.Lambda = lambda
		cfg.Cutoff = 40
		cfgs[i] = cfg
	}
	sums, err := sim.SweepConfigs(cfgs, p.Replications)
	if err != nil {
		return nil, err
	}
	perClass := make([][]float64, 3)
	for _, summary := range sums {
		for c := 0; c < 3; c++ {
			perClass[c] = append(perClass[c], summary.MeanDelay(clients.Class(c)))
		}
	}
	for c := 0; c < 3; c++ {
		fig.Series = append(fig.Series, Series{Name: classNames[c], X: lambdas, Y: perClass[c]})
	}

	// Claim 1: overall delay grows with load but sublinearly — the 20x load
	// increase must NOT produce a 20x delay increase (multicast absorption).
	lo, hi := perClass[2][0], perClass[2][len(lambdas)-1]
	fig.Claims = append(fig.Claims, Claim{
		Name:   "multicast keeps the 20× load increase far below a 20× delay increase",
		Pass:   hi > lo && hi < lo*6,
		Detail: fmt.Sprintf("Class-C delay %.1f at λ=1 vs %.1f at λ=20 (×%.1f)", lo, hi, hi/lo),
	})
	// Claim 2: ordering A ≤ B ≤ C at every load (3% tolerance).
	const tol = 0.03
	violations := 0
	for i := range lambdas {
		if perClass[0][i] > perClass[1][i]*(1+tol) || perClass[1][i] > perClass[2][i]*(1+tol) {
			violations++
		}
	}
	fig.Claims = append(fig.Claims, Claim{
		Name:   "class ordering survives across the load sweep",
		Pass:   violations == 0,
		Detail: fmt.Sprintf("%d/%d load levels violate the ordering", violations, len(lambdas)),
	})
	return fig, nil
}
