package experiments

import (
	"errors"
	"fmt"

	"hybridqos/internal/core"
	"hybridqos/internal/faults"
	"hybridqos/internal/sim"
)

// ExtFaults sweeps the mean downlink corruption probability of a bursty
// Gilbert–Elliott channel and reports per-class failure rate and mean delay
// under two systems:
//
//   - γ+shed — the paper's importance-factor scheduler (α=0.5) with client
//     retries and class-aware overload shedding;
//   - flat — a class-blind stretch-only scheduler with the same retries but
//     no shedding (the paper's undifferentiated baseline).
//
// The question: does service classification still buy Class-A anything when
// the channel itself fails? Under γ+shed the admission controller converts
// channel-induced overload into Class-C shedding, so Class-A's failure rate
// stays far below Class-C's; the flat baseline spreads failures evenly.
func ExtFaults(p Params) (*Figure, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	losses := []float64{0, 0.05, 0.1, 0.2, 0.3}
	const meanBurst = 5.0
	cutoff := 2 * p.D / 5 // the paper's K=40 at D=100

	fig := &Figure{
		ID: "EXT-FAULTS",
		Title: fmt.Sprintf("Failure rate and delay vs downlink loss (Gilbert–Elliott, burst=%g, K=%d)",
			meanBurst, cutoff),
		XLabel: "meanLoss",
		YLabel: "failure rate / delay (broadcast units)",
	}
	classNames := []string{"Class-A", "Class-B", "Class-C"}

	build := func(flat bool) (core.Config, error) {
		cfg, err := p.buildConfig(0.60, 0.5)
		if err != nil {
			return core.Config{}, err
		}
		cfg.Cutoff = cutoff
		cfg.Retry = faults.RetryPolicy{MaxAttempts: 3, Base: 1, Multiplier: 2, Jitter: 0.5}
		if flat {
			cfg.Alpha = 1 // stretch-only: class-blind selection
		} else {
			// Watermarks sit just above the error-free channel's pending
			// load (mean ≈165, max ≈210 requests at λ=5, K=40), so shedding
			// activates only when loss-induced retries inflate the queue.
			cfg.Shed = &faults.ShedConfig{High: 260, Low: 200}
		}
		return cfg, nil
	}

	// Both systems at every loss level share the work pool: even points are
	// γ+shed, odd points the flat baseline, at losses[point/2].
	cfgs := make([]core.Config, 0, 2*len(losses))
	for range losses {
		shedCfg, err := build(false)
		if err != nil {
			return nil, err
		}
		flatCfg, err := build(true)
		if err != nil {
			return nil, err
		}
		cfgs = append(cfgs, shedCfg, flatCfg)
	}
	sums, err := sim.SweepConfigs(cfgs, p.Replications, func(point, _ int, c *core.Config) error {
		loss := losses[point/2]
		if loss == 0 {
			return nil
		}
		lm, err := faults.NewBurstLoss(loss, meanBurst)
		if err != nil {
			return err
		}
		c.Loss = lm
		return nil
	})
	if err != nil {
		var pe *sim.PointError
		if errors.As(err, &pe) {
			loss := losses[pe.Point/2]
			if pe.Point%2 == 0 {
				return nil, fmt.Errorf("experiments: faults γ+shed loss %g: %w", loss, pe.Err)
			}
			return nil, fmt.Errorf("experiments: faults flat loss %g: %w", loss, pe.Err)
		}
		return nil, err
	}

	xs := make([]float64, len(losses))
	shedFail := make([][]float64, 3)
	flatFail := make([][]float64, 3)
	shedDelay := make([][]float64, 3)
	var shedSummaries []*sim.Summary
	for i, loss := range losses {
		xs[i] = loss
		shed, flat := sums[2*i], sums[2*i+1]
		shedSummaries = append(shedSummaries, shed)
		for c := 0; c < 3; c++ {
			shedFail[c] = append(shedFail[c], shed.PerClass[c].FailureRate.Mean())
			flatFail[c] = append(flatFail[c], flat.PerClass[c].FailureRate.Mean())
			shedDelay[c] = append(shedDelay[c], shed.PerClass[c].Delay.Mean())
		}
	}
	for c := 0; c < 3; c++ {
		fig.Series = append(fig.Series, Series{
			Name: classNames[c] + " failure (γ+shed)", X: xs, Y: shedFail[c],
		})
	}
	for c := 0; c < 3; c++ {
		fig.Series = append(fig.Series, Series{
			Name: classNames[c] + " failure (flat)", X: xs, Y: flatFail[c],
		})
	}
	for c := 0; c < 3; c++ {
		fig.Series = append(fig.Series, Series{
			Name: classNames[c] + " delay (γ+shed)", X: xs, Y: shedDelay[c],
		})
	}

	// Claims. The zero-loss point doubles as a no-op audit: no corruption,
	// no retries, no failures from the fault layer itself.
	last := len(losses) - 1
	zero := shedSummaries[0]
	noCorruption := zero.CorruptedPushes == 0 && zero.CorruptedPulls == 0 &&
		zero.PerClass[0].Retries == 0 && zero.PerClass[0].Failed == 0
	fig.Claims = append(fig.Claims, Claim{
		Name: "zero loss produces no corruption, retries or failures",
		Pass: noCorruption,
		Detail: fmt.Sprintf("corrupted %d push / %d pull at loss 0",
			zero.CorruptedPushes, zero.CorruptedPulls),
	})

	aShed, cShed := shedFail[0][last], shedFail[2][last]
	fig.Claims = append(fig.Claims, Claim{
		Name: "Class-A failure rate strictly below Class-C under γ+shed",
		Pass: aShed < cShed,
		Detail: fmt.Sprintf("at loss %.2f: Class-A %.4f vs Class-C %.4f",
			losses[last], aShed, cShed),
	})

	shedSpread := cShed - aShed
	flatSpread := flatFail[2][last] - flatFail[0][last]
	fig.Claims = append(fig.Claims, Claim{
		Name: "classification differentiates failure under loss; flat does not",
		Pass: shedSpread > 2*flatSpread,
		Detail: fmt.Sprintf("C−A failure spread: γ+shed %.4f vs flat %.4f",
			shedSpread, flatSpread),
	})

	corrLow := shedSummaries[1].CorruptedPushes + shedSummaries[1].CorruptedPulls
	corrHigh := shedSummaries[last].CorruptedPushes + shedSummaries[last].CorruptedPulls
	fig.Claims = append(fig.Claims, Claim{
		Name: "corruption volume grows with the configured loss",
		Pass: corrHigh > corrLow && corrLow > 0,
		Detail: fmt.Sprintf("corrupted transmissions: %d at loss %.2f vs %d at loss %.2f",
			corrLow, losses[1], corrHigh, losses[last]),
	})
	return fig, nil
}
