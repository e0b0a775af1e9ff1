package hybridqos_test

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"hybridqos"
)

// ExampleSimulate runs the paper's cell (section 5.1: 100 items with
// Zipf(0.6) popularity, λ' = 5, three client classes with priorities
// 3:2:1, cutoff K = 40, α = 0.5) and prints each class's access time.
func ExampleSimulate() {
	res, err := hybridqos.Simulate(hybridqos.PaperConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hybrid scheduler, K=%d, α=%.2f (%d replications)\n",
		res.Cutoff, res.Alpha, res.Replications)
	for _, c := range res.PerClass {
		fmt.Printf("%s (weight %.0f): mean delay %.1f ± %.1f broadcast units, cost %.1f\n",
			c.Class, c.Weight, c.MeanDelay, c.DelayCI95, c.Cost)
	}
	fmt.Printf("overall delay %.1f, total prioritised cost %.1f\n", res.OverallDelay, res.TotalCost)
	// Output:
	// hybrid scheduler, K=40, α=0.50 (3 replications)
	// Class-A (weight 3): mean delay 73.3 ± 0.9 broadcast units, cost 219.9
	// Class-B (weight 2): mean delay 78.1 ± 0.9 broadcast units, cost 156.2
	// Class-C (weight 1): mean delay 83.5 ± 0.1 broadcast units, cost 83.5
	// overall delay 80.2, total prioritised cost 459.6
}

// ExamplePredict evaluates the refined analytic model for the paper's cell,
// which takes no simulation time, and compares it with a simulation.
func ExamplePredict() {
	cfg := hybridqos.PaperConfig()
	pred, err := hybridqos.Predict(cfg)
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range pred.PerClass {
		fmt.Printf("%s: predicted delay %.1f, cost %.1f\n", c.Class, c.Delay, c.Cost)
	}
	res, err := hybridqos.Simulate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	dev, err := hybridqos.DeviationFromPrediction(res, pred)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("predicted overall %.1f, simulated %.1f (worst per-class deviation %.1f%%)\n",
		pred.OverallDelay, res.OverallDelay, dev*100)
	// Output:
	// Class-A: predicted delay 79.9, cost 239.8
	// Class-B: predicted delay 85.7, cost 171.4
	// Class-C: predicted delay 91.4, cost 91.4
	// predicted overall 87.8, simulated 80.2 (worst per-class deviation 9.7%)
}

// ExampleOptimizeCutoff is the paper's periodic re-optimisation (§3:
// "periodically the algorithm is executed for different cutoff-points and
// obtains the optimal cutoff-point") under popularity drift: morning
// headlines concentrate demand (high θ), evening browsing spreads it (low
// θ). For each epoch the analytic model picks K in microseconds, a
// simulated sweep picks K by brute force, and the simulator measures the
// cost of keeping the previous epoch's K against switching to the model's.
func ExampleOptimizeCutoff() {
	cfg := hybridqos.PaperConfig()
	cfg.Horizon = 4000
	cfg.Replications = 2
	staleK := 40 // what the previous tuning left behind
	for _, theta := range []float64{1.4, 0.8, 0.3} {
		cfg.Theta = theta
		pred, err := hybridqos.PredictOptimalCutoff(cfg, 5, 95)
		if err != nil {
			log.Fatal(err)
		}
		swept, err := hybridqos.OptimizeCutoff(cfg, 5, 95, 5, "cost")
		if err != nil {
			log.Fatal(err)
		}
		cfg.Cutoff = staleK
		stale, err := hybridqos.Simulate(cfg)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Cutoff = pred.Cutoff
		tuned, err := hybridqos.Simulate(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("θ=%.2f: model K=%d, sweep K=%d; measured cost %.1f at stale K=%d, %.1f at K=%d\n",
			theta, pred.Cutoff, swept.Cutoff, stale.TotalCost, staleK, tuned.TotalCost, pred.Cutoff)
		if theta == 1.4 {
			fmt.Printf("θ=1.40 wants a small push set (K < 30): %v\n", pred.Cutoff < 30)
		}
		staleK = pred.Cutoff
	}
	// Output:
	// θ=1.40: model K=12, sweep K=15; measured cost 405.9 at stale K=40, 209.5 at K=12
	// θ=1.40 wants a small push set (K < 30): true
	// θ=0.80: model K=29, sweep K=25; measured cost 494.7 at stale K=12, 402.5 at K=29
	// θ=0.30: model K=43, sweep K=40; measured cost 523.1 at stale K=29, 487.0 at K=43
}

// ExampleRunClosedLoop closes the §3 loop against a drifting workload (the
// true popularity ranking rotates 5 places per epoch): after each epoch the
// controller fits θ̂ by maximum likelihood and λ̂ from the observed
// requests, re-ranks the push set by observed demand and re-plans K with
// the analytic model. The frozen baseline keeps epoch 0's server, so its
// push set falls ever further behind the drift.
func ExampleRunClosedLoop() {
	cfg := hybridqos.PaperConfig()
	cfg.Theta = 1.0
	cfg.Seed = 11
	const epochs, epochLen, shift = 8, 6000, 5
	adaptive, err := hybridqos.RunClosedLoop(cfg, epochs, epochLen, shift, true)
	if err != nil {
		log.Fatal(err)
	}
	frozen, err := hybridqos.RunClosedLoop(cfg, epochs, epochLen, shift, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("epoch  adaptive K  adaptive cost  frozen cost  θ̂     λ̂")
	var adaptSum, frozenSum float64
	for i, a := range adaptive {
		f := frozen[i]
		adaptSum += a.TotalCost
		frozenSum += f.TotalCost
		fmt.Printf("%-5d  %-10d  %-13.1f  %-11.1f  %-4.2f  %.2f\n",
			a.Epoch, a.Cutoff, a.TotalCost, f.TotalCost, a.ThetaHat, a.LambdaHat)
	}
	fmt.Printf("mean cost: adaptive %.1f vs frozen %.1f (%.1f%% saved)\n",
		adaptSum/epochs, frozenSum/epochs, 100*(frozenSum-adaptSum)/frozenSum)
	// Output:
	// epoch  adaptive K  adaptive cost  frozen cost  θ̂     λ̂
	// 0      40          435.4          435.4        1.01  4.99
	// 1      22          378.0          442.4        1.00  5.02
	// 2      21          381.1          442.1        1.00  5.05
	// 3      20          376.4          442.2        1.00  4.97
	// 4      21          375.7          449.3        0.99  5.06
	// 5      24          371.4          460.5        1.00  5.02
	// 6      24          370.3          471.3        1.01  5.08
	// 7      18          365.2          488.1        1.00  5.04
	// mean cost: adaptive 381.7 vs frozen 453.9 (15.9% saved)
}

// ExampleSimulate_newsfeed is a metropolitan news cell with three
// subscriber tiers (platinum = Class-A, gold, free) and heavily skewed
// popularity. It contrasts tier-blind scheduling (α=1, stretch only) with
// tier-aware scheduling (α=0.25). The paper's churn argument: the premium
// tier, whose defection hurts most, gains the most.
func ExampleSimulate_newsfeed() {
	cfg := hybridqos.PaperConfig()
	cfg.Theta = 1.0 // news popularity is heavily skewed
	cfg.Cutoff = 30 // hot headlines broadcast continuously
	cfg.Horizon = 15000
	var runs [2]*hybridqos.Result
	for i, alpha := range []float64{1.0, 0.25} {
		cfg.Alpha = alpha
		res, err := hybridqos.Simulate(cfg)
		if err != nil {
			log.Fatal(err)
		}
		runs[i] = res
	}
	blind, aware := runs[0], runs[1]
	for i, tier := range []string{"platinum", "gold", "free"} {
		b, a := blind.PerClass[i].MeanDelay, aware.PerClass[i].MeanDelay
		fmt.Printf("%-8s  α=1.0: %5.1f units  α=0.25: %5.1f units (%+.1f%%)\n",
			tier, b, a, 100*(a-b)/b)
	}
	fmt.Printf("total prioritised cost: %.1f tier-blind vs %.1f tier-aware\n",
		blind.TotalCost, aware.TotalCost)
	// Output:
	// platinum  α=1.0:  78.0 units  α=0.25:  56.8 units (-27.2%)
	// gold      α=1.0:  77.6 units  α=0.25:  62.7 units (-19.2%)
	// free      α=1.0:  78.0 units  α=0.25:  69.4 units (-11.0%)
	// total prioritised cost: 467.3 tier-blind vs 365.1 tier-aware
}

// ExampleSimulate_premiumtrading sizes the premium bandwidth pool of a
// mobile trading cell under a tight downlink budget (8 units). Each
// transmission's bandwidth need is stochastic; when the governing tier's
// pool cannot cover it the item and its pending requests are dropped (the
// abstract's blocking claim). Growing the premium share trades free-tier
// drops for premium availability; borrow mode instead lets the premium
// tier spill into idle lower-tier pools.
func ExampleSimulate_premiumtrading() {
	cfg := hybridqos.PaperConfig()
	cfg.Cutoff = 50
	cfg.Alpha = 0.25
	cfg.Horizon = 10000
	fmt.Println("A-share  A drops  B drops  C drops  A delay")
	for _, fracA := range []float64{0.2, 0.35, 0.5, 0.65, 0.8} {
		rest := (1 - fracA) / 2
		cfg.Bandwidth = &hybridqos.BandwidthConfig{
			Total:      8,
			Fractions:  []float64{fracA, rest, rest},
			DemandMean: 1.5,
		}
		res, err := hybridqos.Simulate(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-7.2f  %.4f   %.4f   %.4f   %.1f\n", fracA,
			res.PerClass[0].DropRate, res.PerClass[1].DropRate, res.PerClass[2].DropRate,
			res.PerClass[0].MeanDelay)
	}
	cfg.Bandwidth = &hybridqos.BandwidthConfig{
		Total:       8,
		Fractions:   []float64{0.2, 0.4, 0.4},
		DemandMean:  1.5,
		AllowBorrow: true,
	}
	res, err := hybridqos.Simulate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("borrow mode at A-share 0.20: A drops %.4f\n", res.PerClass[0].DropRate)
	// Output:
	// A-share  A drops  B drops  C drops  A delay
	// 0.20     0.2481   0.1656   0.1731   53.6
	// 0.35     0.1918   0.1900   0.1905   50.9
	// 0.50     0.0939   0.1568   0.1486   55.9
	// 0.65     0.0604   0.1804   0.1679   56.2
	// 0.80     0.0393   0.1901   0.1753   56.6
	// borrow mode at A-share 0.20: A drops 0.0152
}

// ExampleSimulate_multitier runs five service classes instead of the
// paper's three (§4.2.2, "Effect of Multiple Service Classes"): the single
// γ selection rule layers all five tiers at α=0.1, and the tiers collapse
// at α=1.
func ExampleSimulate_multitier() {
	cfg := hybridqos.PaperConfig()
	cfg.ClassWeights = []float64{5, 4, 3, 2, 1}
	cfg.Cutoff = 50
	cfg.Alpha = 0.1
	cfg.Horizon = 15000
	res, err := hybridqos.Simulate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("tier      weight  mean delay  p95 delay  cost")
	layered := true
	for i, tier := range []string{"diamond", "platinum", "gold", "silver", "free"} {
		c := res.PerClass[i]
		fmt.Printf("%-8s  %-6.0f  %-10.1f  %-9.1f  %.1f\n", tier, c.Weight, c.MeanDelay, c.P95Delay, c.Cost)
		layered = layered && (i == 0 || c.MeanDelay > res.PerClass[i-1].MeanDelay)
	}
	fmt.Printf("tiers strictly layered: %v\n", layered)
	cfg.Alpha = 1
	flat, err := hybridqos.Simulate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	spread := func(r *hybridqos.Result) float64 {
		return r.PerClass[len(r.PerClass)-1].MeanDelay - r.PerClass[0].MeanDelay
	}
	fmt.Printf("top-to-bottom delay spread: %.1f units at α=0.1 vs %.1f at α=1\n", spread(res), spread(flat))
	// Output:
	// tier      weight  mean delay  p95 delay  cost
	// diamond   5       79.7        176.3      398.7
	// platinum  4       82.7        177.7      330.6
	// gold      3       87.0        180.1      261.0
	// silver    2       90.3        182.0      180.6
	// free      1       94.6        185.0      94.6
	// tiers strictly layered: true
	// top-to-bottom delay spread: 14.9 units at α=0.1 vs 0.4 at α=1
}

// ExampleSimulate_lossycell runs a cell whose downlink fades in bursts
// (Gilbert–Elliott loss, mean burst 5 transmissions). Clients re-request
// corrupted pull deliveries with backoff, and class-aware admission sheds
// Class-C at 260 pending requests, so Class-A rides out the loss while
// Class-C pays for the channel. Nothing is shed at 0% loss: the watermarks
// sit above the healthy cell's load.
func ExampleSimulate_lossycell() {
	fmt.Println("loss  A delay (fail%)  C delay (fail%)  corrupted  retries  C shed")
	for _, loss := range []float64{0, 0.1, 0.2, 0.3} {
		cfg := hybridqos.PaperConfig()
		cfg.Horizon = 10000
		cfg.Faults = &hybridqos.FaultsConfig{
			LossProb:    loss,
			MeanBurst:   5,
			MaxRetries:  3,
			RetryJitter: 0.5,
			ShedHigh:    260,
			ShedLow:     200,
		}
		res, err := hybridqos.Simulate(cfg)
		if err != nil {
			log.Fatal(err)
		}
		a, c := res.PerClass[0], res.PerClass[2]
		var retries int64
		for _, pc := range res.PerClass {
			retries += pc.Retries
		}
		fmt.Printf("%3.0f%%  %5.1f (%4.1f%%)    %5.1f (%4.1f%%)    %-9d  %-7d  %d\n",
			loss*100, a.MeanDelay, a.FailureRate*100, c.MeanDelay, c.FailureRate*100,
			res.CorruptedPushes+res.CorruptedPulls, retries, c.Shed)
	}
	// Output:
	// loss  A delay (fail%)  C delay (fail%)  corrupted  retries  C shed
	//   0%   72.8 ( 0.0%)     83.3 ( 0.0%)    0          0        0
	//  10%   87.0 ( 0.1%)     97.0 ( 0.2%)    1695       5158     75
	//  20%  104.0 ( 0.3%)    113.1 ( 2.9%)    3427       10930    1982
	//  30%  128.2 ( 0.7%)    136.5 ( 8.8%)    5221       16525    6222
}

// ExampleSweepIndexing applies (1, m) air indexing to the 40-item push
// cycle: interleaving m index segments lets a hand-held client doze and
// wake only for one index and its item. The sweep shows the access-versus-
// tuning trade-off, and PlanIndexing applies the classic
// m* = sqrt(Data/IndexLen) rule.
func ExampleSweepIndexing() {
	cfg := hybridqos.PaperConfig()
	const indexLen = 0.5
	sweep, err := hybridqos.SweepIndexing(cfg, indexLen, 40)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("m   access  tuning  doze")
	for _, p := range sweep {
		if p.M == 1 || p.M%6 == 0 || p.M == 40 {
			fmt.Printf("%-2d  %-6.1f  %-6.2f  %.1f%%\n", p.M, p.AccessTime, p.TuningTime, p.DozeFraction*100)
		}
	}
	best, err := hybridqos.PlanIndexing(cfg, indexLen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("m*=%d: access %.1f, tuning %.2f, dozing %.1f%% of the wait\n",
		best.M, best.AccessTime, best.TuningTime, best.DozeFraction*100)
	// Output:
	// m   access  tuning  doze
	// 1   72.8    2.33    96.8%
	// 6   44.9    2.33    94.8%
	// 12  43.5    2.33    94.6%
	// 18  44.0    2.33    94.7%
	// 24  45.0    2.33    94.8%
	// 30  46.3    2.33    95.0%
	// 36  47.6    2.33    95.1%
	// 40  48.5    2.33    95.2%
	// m*=12: access 43.5, tuning 2.33, dozing 94.6% of the wait
}

// ExampleSimulateCluster federates eight cells, each running the paper's
// scheduler over its own catalog (80% global content). A stadium cell
// (cell 3) carries four times the load, and clients roam between cells
// mid-request, re-attaching after a transit delay with their class and
// deadline intact. Per-class differentiation survives federation, every
// roamer is accounted for, and the hot cell trips the saturation detector.
func ExampleSimulateCluster() {
	cfg := hybridqos.PaperConfig()
	cfg.Horizon = 4000
	cfg.Cluster = &hybridqos.ClusterOptions{
		Cells:            8,
		CatalogOverlap:   0.8,
		MobilityRate:     0.03,
		AttachDelay:      2,
		Routing:          "least-loaded",
		HandoffEvery:     100,
		HotCell:          3,
		HotFactor:        4,
		SaturationLoad:   800,
		SaturationEpochs: 2,
	}
	res, err := hybridqos.SimulateCluster(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d cells, %d of %d catalog ranks global\n", res.Cells, res.SharedRanks, cfg.NumItems)
	for _, c := range res.PerClass {
		fmt.Printf("%s: mean delay %.2f, p95 %.2f, served %d\n", c.Class, c.MeanDelay, c.P95Delay, c.Served)
	}
	for _, pc := range res.PerCell {
		sat := ""
		if pc.Saturated {
			sat = fmt.Sprintf(", saturated at t=%.0f", pc.SaturatedAt)
		}
		fmt.Printf("cell %d: delay %.2f, served %d, roamed in %d / out %d, refused %d%s\n",
			pc.Cell, pc.OverallDelay, pc.Served, pc.HandoffsIn, pc.HandoffsOut, pc.HandoffRefusals, sat)
	}
	fmt.Printf("handoffs: %d accepted, %d refused; saturated cells: %d\n",
		res.Handoffs, res.HandoffRefusals, res.SaturatedCells)
	// Output:
	// 8 cells, 80 of 100 catalog ranks global
	// Class-A: mean delay 79.20, p95 222.37, served 32908
	// Class-B: mean delay 81.39, p95 226.35, served 48674
	// Class-C: mean delay 85.35, p95 231.56, served 96366
	// cell 0: delay 102.54, served 21471, roamed in 21518 / out 16759, refused 1726
	// cell 1: delay 93.37, served 21535, roamed in 21460 / out 17065, refused 2925
	// cell 2: delay 83.29, served 21414, roamed in 21445 / out 17109, refused 5015
	// cell 3: delay 64.07, served 40025, roamed in 17194 / out 50848, refused 1423, saturated at t=200
	// cell 4: delay 84.77, served 20072, roamed in 18919 / out 16107, refused 1839
	// cell 5: delay 88.74, served 21080, roamed in 18776 / out 14930, refused 1561
	// cell 6: delay 90.61, served 19827, roamed in 17691 / out 15274, refused 1637
	// cell 7: delay 68.89, served 12524, roamed in 8060 / out 13533, refused 436
	// handoffs: 145063 accepted, 16562 refused; saturated cells: 1
}

// ExampleExportTimeline watches an overloaded cell (λ=8) on a bursty lossy
// downlink through the telemetry layer: a snapshot every 500 broadcast
// units, each delivered live in the Prometheus text format, and embedded
// in the trace. ExportTimeline lowers the trace to CSV and SVG only after
// an independent replay of its events has reproduced every snapshot.
func ExampleExportTimeline() {
	cfg := hybridqos.PaperConfig()
	cfg.Horizon = 5000
	cfg.Lambda = 8
	cfg.Replications = 1
	cfg.Faults = &hybridqos.FaultsConfig{
		LossProb:   0.15,
		MeanBurst:  4,
		MaxRetries: 2,
		ShedHigh:   300,
		ShedLow:    220,
	}
	var snapshots int
	var lastProm string
	cfg.Telemetry = &hybridqos.TelemetryConfig{
		SnapshotEvery: 500,
		OnSnapshot: func(_ float64, prom []byte) {
			snapshots++
			lastProm = string(prom)
		},
	}
	dir, err := os.MkdirTemp("", "hybridqos-telemetry")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	tracePath := filepath.Join(dir, "run.jsonl")
	events, err := hybridqos.WriteTrace(cfg, tracePath)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("traced %d events, %d live snapshots\n", events, snapshots)
	for _, line := range strings.Split(lastProm, "\n") {
		for _, metric := range []string{"hybridqos_sim_time", "hybridqos_arrivals_total", "hybridqos_shed_total", "hybridqos_queue_requests "} {
			if strings.HasPrefix(line, metric) {
				fmt.Println(line)
			}
		}
	}
	a, err := hybridqos.ExportTimeline(tracePath, filepath.Join(dir, "timeline"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("audited %d snapshots; timeline of %d ticks x %d classes:\n", a.Snapshots, a.Ticks, a.Classes)
	for _, p := range []string{a.CSV, a.DelaySVG, a.QueueSVG} {
		fmt.Println(filepath.Base(p))
	}
	// Output:
	// traced 82730 events, 10 live snapshots
	// hybridqos_sim_time 5000
	// hybridqos_arrivals_total{class="0"} 7325
	// hybridqos_arrivals_total{class="1"} 10741
	// hybridqos_arrivals_total{class="2"} 21926
	// hybridqos_shed_total{class="2"} 2656
	// hybridqos_queue_requests 285
	// audited 10 snapshots; timeline of 10 ticks x 3 classes:
	// timeline.csv
	// timeline-delay.svg
	// timeline-queue.svg
}

// ExamplePullPolicies tours the policy registry: the same cell runs under
// pull policies and push schedulers selected by name alone. The "none"
// push scheduler routes every request through the pull queue, and EDF with
// a TTL serves the most urgent item first and counts missed deadlines as
// expired.
func ExamplePullPolicies() {
	fmt.Printf("pull policies: %s\n", strings.Join(hybridqos.PullPolicies(), ", "))
	fmt.Printf("push schedulers: %s\n", strings.Join(hybridqos.PushSchedulers(), ", "))
	base := hybridqos.PaperConfig()
	base.Horizon = 8000
	base.Replications = 2
	for _, name := range []string{
		hybridqos.PolicyGamma,
		hybridqos.PolicyStretch,
		hybridqos.PolicyPriority,
		hybridqos.PolicyFCFS,
		hybridqos.PolicyEDF,
	} {
		cfg := base
		cfg.PullPolicy = name
		res, err := hybridqos.Simulate(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("pull %-17s Class-A %5.1f  Class-C %5.1f  overall %5.1f\n",
			name, res.PerClass[0].MeanDelay, res.PerClass[2].MeanDelay, res.OverallDelay)
	}
	for _, name := range []string{hybridqos.PushRoundRobin, hybridqos.PushBroadcastDisk, hybridqos.PushNone} {
		cfg := base
		cfg.PushScheduler = name
		if name == hybridqos.PushBroadcastDisk {
			cfg.PushDisks = 4
		}
		res, err := hybridqos.Simulate(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("push %-17s overall %5.1f  push broadcasts %d  pull transmissions %d\n",
			name, res.OverallDelay, res.PushBroadcasts, res.PullTransmissions)
	}
	cfg := base
	cfg.PullPolicy = hybridqos.PolicyEDF
	cfg.RequestTTL = 120
	res, err := hybridqos.Simulate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	var expired int64
	for _, c := range res.PerClass {
		expired += c.Expired
	}
	fmt.Printf("edf with TTL=120: overall delay %.1f, %d requests expired\n", res.OverallDelay, expired)
	// Output:
	// pull policies: classic-stretch, edf, fcfs, gamma, mrf, priority, rxw, stretch
	// push schedulers: broadcast-disk, none, roundrobin, square-root
	// pull gamma             Class-A  72.7  Class-C  83.2  overall  79.7
	// pull stretch           Class-A  99.6  Class-C  99.8  overall  99.4
	// pull priority          Class-A  73.9  Class-C  86.2  overall  82.4
	// pull fcfs              Class-A  86.2  Class-C  86.1  overall  86.4
	// pull edf               Class-A  86.2  Class-C  86.1  overall  86.4
	// push roundrobin        overall  79.7  push broadcasts 4513  pull transmissions 4512
	// push broadcast-disk    overall  82.1  push broadcasts 4407  pull transmissions 4407
	// push none              overall  80.0  push broadcasts 0  pull transmissions 9309
	// edf with TTL=120: overall delay 60.6, 8558 requests expired
}
