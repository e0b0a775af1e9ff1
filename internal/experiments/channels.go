package experiments

import (
	"fmt"
	"math"

	"hybridqos/internal/catalog"
	"hybridqos/internal/clients"
	"hybridqos/internal/multichannel"
)

// ExtChannels sweeps the push/pull split of a fixed multi-channel downlink
// (total capacity held constant — n channels each run at rate 1/n) and
// reports per-class delay for every split. The question, inherited from the
// multi-channel broadcast-allocation literature the paper cites: given C
// channels, how many should broadcast the push set and how many should
// drain the pull queue?
func ExtChannels(p Params) (*Figure, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	const totalChannels = 4
	cat, err := catalog.Generate(catalog.Config{
		D: p.D, Theta: 0.60, MinLen: 1, MaxLen: 5,
		LengthWeights: catalog.PaperLengthWeights(), Seed: p.Seed,
	})
	if err != nil {
		return nil, err
	}
	cl, err := clients.New(clients.PaperConfig())
	if err != nil {
		return nil, err
	}

	fig := &Figure{
		ID:     "EXT-CHAN",
		Title:  fmt.Sprintf("Push/pull split of %d fixed-capacity channels (θ=0.60, K=%d)", totalChannels, p.D/2),
		XLabel: "pushChannels",
		YLabel: "delay (broadcast units)",
	}
	classNames := []string{"Class-A", "Class-B", "Class-C"}
	var xs []float64
	perClass := make([][]float64, 3)
	var overall []float64
	for pushCh := 1; pushCh < totalChannels; pushCh++ {
		// Average over replications manually (multichannel has no sim
		// wrapper; replications share the CRN base seed discipline).
		var sums [3]float64
		var overallSum float64
		for rep := 0; rep < p.Replications; rep++ {
			m, err := multichannel.Run(multichannel.Config{
				Catalog:        cat,
				Classes:        cl,
				Lambda:         p.Lambda,
				Cutoff:         p.D / 2,
				Alpha:          0.5,
				PushChannels:   pushCh,
				PullChannels:   totalChannels - pushCh,
				Horizon:        p.Horizon,
				WarmupFraction: p.WarmupFraction,
				Seed:           p.Seed + uint64(rep),
			})
			if err != nil {
				return nil, err
			}
			for c := 0; c < 3; c++ {
				sums[c] += m.PerClass[c].Delay.Mean()
			}
			overallSum += m.OverallMeanDelay()
		}
		xs = append(xs, float64(pushCh))
		for c := 0; c < 3; c++ {
			perClass[c] = append(perClass[c], sums[c]/float64(p.Replications))
		}
		overall = append(overall, overallSum/float64(p.Replications))
	}
	for c := 0; c < 3; c++ {
		fig.Series = append(fig.Series, Series{Name: classNames[c], X: xs, Y: perClass[c]})
	}
	fig.Series = append(fig.Series, Series{Name: "overall", X: xs, Y: overall})

	// Claim: the best split is a real decision — the spread between best
	// and worst split is material (>10%).
	best, worst := math.Inf(1), math.Inf(-1)
	for _, v := range overall {
		best = math.Min(best, v)
		worst = math.Max(worst, v)
	}
	fig.Claims = append(fig.Claims, Claim{
		Name:   "channel split materially affects delay",
		Pass:   worst > best*1.1,
		Detail: fmt.Sprintf("overall delay range [%.1f, %.1f] across splits", best, worst),
	})
	return fig, nil
}
