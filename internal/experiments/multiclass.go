package experiments

import (
	"fmt"

	"hybridqos/internal/catalog"
	"hybridqos/internal/clients"
	"hybridqos/internal/core"
	"hybridqos/internal/sim"
)

// ExtMultiClass exercises §4.2.2 ("Effect of Multiple Service Classes")
// end-to-end with five service classes instead of the paper's three: the
// measured per-class delays must be strictly layered whenever priority has
// influence, and the layering must collapse at α = 1. This is the
// experiment the paper's multi-class Cobham analysis (Eq. 18) motivates but
// never evaluates.
func ExtMultiClass(p Params) (*Figure, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	const numClasses = 5
	weights := make([]float64, numClasses)
	for i := range weights {
		weights[i] = float64(numClasses - i) // 5, 4, 3, 2, 1
	}
	cl, err := clients.New(clients.Config{Weights: weights, PopulationSkew: 1.0})
	if err != nil {
		return nil, err
	}
	cat, err := catalog.Generate(catalog.Config{
		D: p.D, Theta: 0.60, MinLen: 1, MaxLen: 5,
		LengthWeights: catalog.PaperLengthWeights(), Seed: p.Seed,
	})
	if err != nil {
		return nil, err
	}

	fig := &Figure{
		ID:     "EXT-MULTI",
		Title:  "Five service classes: per-class delay vs α (θ=0.60, K=D/2)",
		XLabel: "alpha",
		YLabel: "delay (broadcast units)",
	}
	alphas := []float64{0, 0.25, 0.5, 0.75, 1.0}
	cfgs := make([]core.Config, len(alphas))
	for i, alpha := range alphas {
		cfgs[i] = core.Config{
			Catalog:        cat,
			Classes:        cl,
			Lambda:         p.Lambda,
			Cutoff:         p.D / 2,
			Alpha:          alpha,
			Horizon:        p.Horizon,
			WarmupFraction: p.WarmupFraction,
			Seed:           p.Seed,
		}
	}
	sums, err := sim.SweepConfigs(cfgs, p.Replications, nil)
	if err != nil {
		return nil, err
	}
	perClass := make([][]float64, numClasses)
	for _, summary := range sums {
		for c := 0; c < numClasses; c++ {
			perClass[c] = append(perClass[c], summary.MeanDelay(clients.Class(c)))
		}
	}
	for c := 0; c < numClasses; c++ {
		fig.Series = append(fig.Series, Series{
			Name: clients.Class(c).String(),
			X:    alphas,
			Y:    perClass[c],
		})
	}

	// Claim 1: at α = 0, the five classes are strictly layered (with the
	// usual noise tolerance).
	const tol = 0.03
	layered := true
	for c := 1; c < numClasses; c++ {
		if perClass[c-1][0] > perClass[c][0]*(1+tol) {
			layered = false
		}
	}
	fig.Claims = append(fig.Claims, Claim{
		Name: "α=0: five classes layered by priority",
		Pass: layered,
		Detail: fmt.Sprintf("delays at α=0: %.1f %.1f %.1f %.1f %.1f",
			perClass[0][0], perClass[1][0], perClass[2][0], perClass[3][0], perClass[4][0]),
	})

	// Claim 2: at α = 1 the spread collapses.
	last := len(alphas) - 1
	spread0 := perClass[numClasses-1][0] - perClass[0][0]
	spread1 := perClass[numClasses-1][last] - perClass[0][last]
	fig.Claims = append(fig.Claims, Claim{
		Name:   "α=1 collapses the class spread",
		Pass:   spread1 < spread0/2,
		Detail: fmt.Sprintf("top-to-bottom spread %.1f at α=0 vs %.1f at α=1", spread0, spread1),
	})
	return fig, nil
}
