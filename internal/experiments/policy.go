package experiments

import (
	"errors"
	"fmt"
	"math"

	"hybridqos/internal/clients"
	"hybridqos/internal/core"
	"hybridqos/internal/policy"
	"hybridqos/internal/sim"
)

// ExtPolicy is the pluggable-policy ablation: per-class delay at the paper's
// operating point (θ=0.60, K=40, α=0.50) under each registered pull policy,
// plus every registered push scheduler other than the default flat
// round-robin (e.g. broadcast-disk, and "none" = pure pull) under the
// default γ pull. Every configuration differs ONLY in the policy names
// resolved through the registry, so the figure doubles as an end-to-end
// exercise of the named-policy plumbing. The claims pin the paper's central
// message — the importance factor buys Class-A its differentiated service
// while class-blind policies (FCFS) cannot — and two structural invariants
// of the policy layer (EDF without deadlines degenerates to FCFS exactly;
// the "none" push scheduler never broadcasts).
func ExtPolicy(p Params) (*Figure, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	const theta, alpha = 0.60, 0.50
	fig := &Figure{
		ID:     "EXT-POLICY",
		Title:  "Per-class delay by scheduling policy (θ=0.60, K=40, α=0.50)",
		XLabel: "class (1=A, 2=B, 3=C)",
		YLabel: "delay (broadcast units)",
	}
	xs := []float64{1, 2, 3}

	build := func(pull, push string) (core.Config, error) {
		cfg, err := p.buildConfig(theta, alpha)
		if err != nil {
			return core.Config{}, err
		}
		cfg.Cutoff = 40
		cfg.PullPolicyName = pull
		cfg.PushPolicyName = push
		return cfg, nil
	}
	delays := func(s *sim.Summary) []float64 {
		ys := make([]float64, 3)
		for c := 0; c < 3; c++ {
			ys[c] = s.MeanDelay(clients.Class(c))
		}
		return ys
	}

	var labels []string
	var cfgs []core.Config
	for _, name := range policy.PullNames() {
		cfg, err := build(name, "")
		if err != nil {
			return nil, err
		}
		labels = append(labels, "pull="+name)
		cfgs = append(cfgs, cfg)
	}
	for _, name := range policy.PushNames() {
		if name == policy.DefaultPush {
			continue // the pull rows already run the default push side
		}
		cfg, err := build("", name)
		if err != nil {
			return nil, err
		}
		labels = append(labels, "push="+name)
		cfgs = append(cfgs, cfg)
	}
	sums, err := sim.SweepConfigs(cfgs, p.Replications, nil)
	if err != nil {
		var pe *sim.PointError
		if errors.As(err, &pe) {
			return nil, fmt.Errorf("%s: %w", labels[pe.Point], pe.Err)
		}
		return nil, err
	}
	byLabel := map[string][]float64{}
	for i, label := range labels {
		byLabel[label] = delays(sums[i])
		fig.Series = append(fig.Series, Series{Name: label, X: xs, Y: byLabel[label]})
		if label == "push=none" {
			fig.Claims = append(fig.Claims, Claim{
				Name:   `push scheduler "none" broadcasts nothing (pure pull)`,
				Pass:   sums[i].PushBroadcasts == 0,
				Detail: fmt.Sprintf("%d push broadcasts pooled over %d replications", sums[i].PushBroadcasts, p.Replications),
			})
		}
	}

	gamma, fcfs, edf := byLabel["pull=gamma"], byLabel["pull=fcfs"], byLabel["pull=edf"]
	fig.Claims = append(fig.Claims, Claim{
		Name: "γ(0.5) beats FCFS on Class-A delay at the paper's operating point",
		Pass: gamma[0] < fcfs[0],
		Detail: fmt.Sprintf("Class-A delay %.2f under γ vs %.2f under FCFS",
			gamma[0], fcfs[0]),
	})
	fcfsSpread := math.Abs(fcfs[2]-fcfs[0]) / ((fcfs[0] + fcfs[1] + fcfs[2]) / 3)
	fig.Claims = append(fig.Claims, Claim{
		Name: "γ differentiates classes (A<B<C) while class-blind FCFS spreads <10%",
		Pass: gamma[0] < gamma[1] && gamma[1] < gamma[2] && fcfsSpread < 0.10,
		Detail: fmt.Sprintf("γ delays %.2f/%.2f/%.2f; FCFS relative spread %.1f%%",
			gamma[0], gamma[1], gamma[2], 100*fcfsSpread),
	})
	edfExact := edf[0] == fcfs[0] && edf[1] == fcfs[1] && edf[2] == fcfs[2]
	fig.Claims = append(fig.Claims, Claim{
		Name:   "EDF without deadlines reproduces FCFS bit-identically",
		Pass:   edfExact,
		Detail: fmt.Sprintf("EDF delays %x/%x/%x vs FCFS %x/%x/%x", edf[0], edf[1], edf[2], fcfs[0], fcfs[1], fcfs[2]),
	})
	return fig, nil
}
