package experiments

import (
	"fmt"

	"hybridqos/internal/cluster"
)

// ExtCluster federates the engine into multi-cell clusters and sweeps the
// client-mobility rate at two federation sizes, measuring how per-class QoS
// holds up as clients roam between cells mid-request. Roamers carry their
// original arrival time, so the transit delay and any re-queueing at the
// destination land in the access-time statistics; roamers whose deadline,
// admission or catalog the destination refuses are lost. The paper's class
// ordering must survive federation and mobility — differentiation is a
// property of each cell's scheduler, not of the topology.
func ExtCluster(p Params) (*Figure, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// A pending request roams at a handoff barrier with probability
	// 1−exp(−rate·Δ), so the sweep is set in units of rate·Δ: fixed rates
	// would saturate to certain roaming once Δ grows with the horizon.
	handoffEvery := p.Horizon / 50
	scaled := []float64{0, 0.25, 0.5, 1}
	rates := make([]float64, len(scaled))
	for i, x := range scaled {
		rates[i] = x / handoffEvery
	}
	cellCounts := []int{4, 16}
	fig := &Figure{
		ID:     "EXT-CLUSTER",
		Title:  "Per-class delay vs mobility rate across federation sizes (θ=0.60, α=0.25, K=40)",
		XLabel: "mobility rate × handoff interval Δ",
		YLabel: "delay (broadcast units)",
	}
	classNames := []string{"Class-A", "Class-B", "Class-C"}

	// delays[cells][class][rate], handoffs[cells][rate] averaged over reps.
	delays := make(map[int][][]float64)
	handoffs := make(map[int][]float64)
	for _, cells := range cellCounts {
		perClass := make([][]float64, 3)
		var moved []float64
		for _, rate := range rates {
			var sumDelay [3]float64
			var sumMoved float64
			for rep := 0; rep < p.Replications; rep++ {
				base, err := p.buildConfig(0.60, 0.25)
				if err != nil {
					return nil, err
				}
				base.Cutoff = 40
				base.Seed = p.Seed + uint64(rep)*1000003
				cl, err := cluster.New(cluster.Config{
					Cells:          cells,
					Base:           base,
					CatalogOverlap: 0.8,
					Mobility:       cluster.Mobility{Rate: rate, AttachDelay: 1},
					Routing:        "nearest",
					HandoffEvery:   handoffEvery,
				})
				if err != nil {
					return nil, err
				}
				res, err := cl.Run()
				if err != nil {
					return nil, err
				}
				for c := 0; c < 3; c++ {
					cm := res.Aggregate.PerClass[c]
					sumDelay[c] += cm.Delay.Mean()
					sumMoved += float64(cm.HandoffsOut)
				}
			}
			for c := 0; c < 3; c++ {
				perClass[c] = append(perClass[c], sumDelay[c]/float64(p.Replications))
			}
			moved = append(moved, sumMoved/float64(p.Replications))
		}
		delays[cells] = perClass
		handoffs[cells] = moved
	}
	for _, cells := range cellCounts {
		for c := 0; c < 3; c++ {
			fig.Series = append(fig.Series, Series{
				Name: fmt.Sprintf("%s (%d cells)", classNames[c], cells),
				X:    scaled, Y: delays[cells][c],
			})
		}
	}

	// Claim 1: mobility actually moves load — outbound handoffs grow
	// strictly with the roam rate at every federation size.
	monotone := true
	for _, cells := range cellCounts {
		for i := 1; i < len(rates); i++ {
			if handoffs[cells][i] <= handoffs[cells][i-1] {
				monotone = false
			}
		}
	}
	fig.Claims = append(fig.Claims, Claim{
		Name: "outbound handoffs grow with the mobility rate at every federation size",
		Pass: monotone,
		Detail: fmt.Sprintf("4 cells: %.0f → %.0f roamers; 16 cells: %.0f → %.0f",
			handoffs[4][0], handoffs[4][len(rates)-1],
			handoffs[16][0], handoffs[16][len(rates)-1]),
	})

	// Claim 2: service differentiation survives federation and mobility —
	// A ≤ B ≤ C at every (rate, cells) point (5% tolerance).
	const tol = 0.05
	violations, points := 0, 0
	for _, cells := range cellCounts {
		pc := delays[cells]
		for i := range rates {
			points++
			if pc[0][i] > pc[1][i]*(1+tol) || pc[1][i] > pc[2][i]*(1+tol) {
				violations++
			}
		}
	}
	fig.Claims = append(fig.Claims, Claim{
		Name:   "class ordering survives federation and mobility at every point",
		Pass:   violations == 0,
		Detail: fmt.Sprintf("%d/%d (rate, cells) points violate A ≤ B ≤ C", violations, points),
	})

	// Claim 3: mobility degrades QoS only gracefully — at the highest roam
	// rate the bottom class pays at most 50% over its mobility-free delay.
	graceful := true
	detail := ""
	for _, cells := range cellCounts {
		lo, hi := delays[cells][2][0], delays[cells][2][len(rates)-1]
		if hi > lo*1.5 {
			graceful = false
		}
		detail += fmt.Sprintf("%d cells: %.1f → %.1f; ", cells, lo, hi)
	}
	fig.Claims = append(fig.Claims, Claim{
		Name:   "bottom-class delay stays within 1.5× of the mobility-free baseline",
		Pass:   graceful,
		Detail: detail,
	})
	return fig, nil
}
