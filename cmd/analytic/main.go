// Command analytic prints the paper's queueing models: the §4.1 hybrid
// birth–death chain (numeric vs closed form), Cobham's per-class waits
// (Eq. 18), the §4.2.1 two-class chain, and the Eq. 19 access-time sweep in
// all three variants (literal / engineering / refined).
//
// Usage:
//
//	analytic                       # everything at the paper's defaults
//	analytic -theta 1.4 -alpha 0   # different operating point
package main

import (
	"flag"
	"fmt"
	"os"

	"hybridqos/internal/analytic"
	"hybridqos/internal/catalog"
	"hybridqos/internal/clients"
	"hybridqos/internal/report"
)

func main() {
	var (
		theta  = flag.Float64("theta", 0.6, "Zipf access skew θ")
		lambda = flag.Float64("lambda", 5, "aggregate request rate λ'")
		alpha  = flag.Float64("alpha", 0.75, "importance-factor mixing α")
		seed   = flag.Uint64("seed", 42, "catalog seed")
		step   = flag.Int("step", 10, "cutoff sweep step")
	)
	flag.Parse()
	if *step < 1 {
		fatal("-step must be at least 1, got %d", *step)
	}

	cat, err := catalog.Generate(catalog.PaperConfig(*theta, *seed))
	if err != nil {
		fatal("catalog: %v", err)
	}
	cl, err := clients.New(clients.PaperConfig())
	if err != nil {
		fatal("classes: %v", err)
	}

	// §4.1 birth–death chain at a stable operating point.
	fmt.Println("== §4.1 hybrid birth–death chain ==")
	hp := analytic.HybridChainParams{Lambda: 0.2, Mu1: 2, Mu2: 1, C: 400}
	hs, err := analytic.SolveHybridChain(hp)
	if err != nil {
		fatal("hybrid chain: %v", err)
	}
	fmt.Printf("λ=%.2f μ1=%.2f μ2=%.2f: p(0,0) numeric %.4f vs closed form %.4f\n",
		hp.Lambda, hp.Mu1, hp.Mu2, hs.P00, analytic.ClosedFormIdle(hp.Lambda, hp.Mu1, hp.Mu2))
	fmt.Printf("E[L_pull]=%.4f  N (push-phase partial mean)=%.4f  W_pull=%.4f\n\n",
		hs.ELPull, hs.NPushPhase, hs.WPull)

	// Eq. 18: Cobham waits for a three-class example.
	fmt.Println("== §4.2.2 Cobham non-preemptive priority waits (Eq. 18) ==")
	classes := []analytic.PriorityClass{{Lambda: 0.5, Mu: 3}, {Lambda: 0.8, Mu: 3}, {Lambda: 1.0, Mu: 3}}
	waits, err := analytic.CobhamWaits(classes)
	if err != nil {
		fatal("cobham: %v", err)
	}
	for i, w := range waits {
		fmt.Printf("class %d (λ=%.1f): W_q = %.4f\n", i+1, classes[i].Lambda, w)
	}
	overall, _ := analytic.OverallPullWait(classes, waits)
	fmt.Printf("overall E[W_pull^q] = %.4f\n\n", overall)

	// §4.2.1 two-class chain vs Cobham.
	fmt.Println("== §4.2.1 two-class chain (numeric) vs Cobham ==")
	tp := analytic.TwoClassParams{Lambda1: 1, Lambda2: 1, Mu: 4, C: 60}
	tr, err := analytic.SolveTwoClassChain(tp)
	if err != nil {
		fatal("two-class: %v", err)
	}
	cw, _ := analytic.CobhamWaits([]analytic.PriorityClass{
		{Lambda: tp.Lambda1, Mu: tp.Mu},
		{Lambda: tp.Lambda2, Mu: tp.Mu},
	})
	fmt.Printf("chain:  W1=%.4f W2=%.4f (system times)\n", tr.W1, tr.W2)
	fmt.Printf("cobham: W1=%.4f W2=%.4f (queue + service)\n\n", cw[0]+1/tp.Mu, cw[1]+1/tp.Mu)

	// Eq. 19 sweep in all variants.
	fmt.Println("== Eq. 19 access-time sweep ==")
	tbl := report.NewTable(
		fmt.Sprintf("Expected access time vs K (θ=%.2f, α=%.2f, λ'=%.1f)", *theta, *alpha, *lambda),
		"K", "literal", "engineering", "refined", "refined A", "refined B", "refined C")
	for k := 10; k <= cat.D()-10; k += *step {
		row := []float64{}
		var refined analytic.Result
		for _, v := range []analytic.Variant{analytic.Literal, analytic.Engineering, analytic.Refined} {
			m := analytic.Model{Catalog: cat, Classes: cl, LambdaTotal: *lambda, Alpha: *alpha, Variant: v}
			r, err := m.AccessTime(k)
			if err != nil {
				fatal("variant %s at K=%d: %v", v, k, err)
			}
			row = append(row, r.Overall)
			if v == analytic.Refined {
				refined = r
			}
		}
		tbl.AddFloats(fmt.Sprint(k), "%.2f",
			row[0], row[1], row[2],
			refined.PerClass[0].Wait, refined.PerClass[1].Wait, refined.PerClass[2].Wait)
	}
	fmt.Println(tbl.String())
	fmt.Println("note: the literal variant reproduces the paper's Eq. 19 verbatim (its push")
	fmt.Println("term degenerates to 0.5 — see DESIGN.md inconsistency #1); the refined")
	fmt.Println("variant is the one validated against simulation (Figure 7).")
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "analytic: "+format+"\n", args...)
	os.Exit(1)
}
