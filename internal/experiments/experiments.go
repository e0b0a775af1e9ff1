// Package experiments regenerates every figure of the paper's evaluation
// (section 5) plus the extension experiments DESIGN.md lists. Each generator
// returns a Figure — named series over a swept x-axis — together with Claims:
// machine-checked verdicts on the qualitative statements the paper makes
// about that figure. EXPERIMENTS.md is written from this output.
package experiments

import (
	"fmt"
	"math"

	"hybridqos/internal/analytic"
	"hybridqos/internal/bandwidth"
	"hybridqos/internal/catalog"
	"hybridqos/internal/clients"
	"hybridqos/internal/core"
	"hybridqos/internal/report"
	"hybridqos/internal/sim"
	"hybridqos/internal/svgplot"
)

// Params holds the experiment-wide knobs. Zero values are replaced by the
// paper's defaults via Defaults.
type Params struct {
	// D is the catalog size (paper: 100).
	D int
	// Lambda is the aggregate request rate λ′ (paper: 5).
	Lambda float64
	// Horizon is the simulated duration per replication.
	Horizon float64
	// WarmupFraction is discarded from statistics.
	WarmupFraction float64
	// Replications per configuration.
	Replications int
	// CutoffStep is the K-sweep granularity.
	CutoffStep int
	// Seed is the base seed.
	Seed uint64
}

// Defaults returns the paper-parameterised setup with a horizon long enough
// for stable estimates at tolerable runtime.
func Defaults() Params {
	return Params{
		D:              100,
		Lambda:         5,
		Horizon:        20000,
		WarmupFraction: 0.1,
		Replications:   3,
		CutoffStep:     10,
		Seed:           1,
	}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.D <= 0 || p.Lambda <= 0 || p.Horizon <= 0 || p.Replications <= 0 || p.CutoffStep <= 0 {
		return fmt.Errorf("experiments: non-positive parameter in %+v", p)
	}
	if p.WarmupFraction < 0 || p.WarmupFraction >= 1 {
		return fmt.Errorf("experiments: warmup fraction %g", p.WarmupFraction)
	}
	return nil
}

// Series is one named curve.
type Series struct {
	// Name identifies the curve (e.g. "Class-A θ=0.60 sim").
	Name string
	// X and Y are the curve's points, index-aligned.
	X, Y []float64
}

// Claim is a machine-checked qualitative statement about a figure.
type Claim struct {
	// Name summarises the paper's statement.
	Name string
	// Pass reports whether the reproduction exhibits it.
	Pass bool
	// Detail carries the measured evidence.
	Detail string
}

// Figure is one reproduced evaluation artefact.
type Figure struct {
	// ID is the experiment id (FIG3..FIG7, EXT-*).
	ID string
	// Title describes the figure.
	Title string
	// XLabel and YLabel name the axes.
	XLabel, YLabel string
	// Series holds the curves.
	Series []Series
	// Claims holds the checked statements.
	Claims []Claim
}

// Table renders the figure as an aligned text table (one row per x, one
// column per series).
func (f *Figure) Table() *report.Table {
	headers := append([]string{f.XLabel}, seriesNames(f.Series)...)
	tbl := report.NewTable(fmt.Sprintf("%s: %s (%s)", f.ID, f.Title, f.YLabel), headers...)
	for i := range xUnion(f.Series) {
		x := xUnion(f.Series)[i]
		cells := []string{report.FormatFloat(x, "%g")}
		for _, s := range f.Series {
			cells = append(cells, report.FormatFloat(yAt(s, x), "%.2f"))
		}
		tbl.AddRow(cells...)
	}
	return tbl
}

// CSV renders the figure as long-form CSV (series,x,y).
func (f *Figure) CSV() *report.CSV {
	c := report.NewCSV("figure", "series", f.XLabel, f.YLabel)
	for _, s := range f.Series {
		for i := range s.X {
			c.AddRow(f.ID, s.Name,
				report.FormatFloat(s.X[i], "%g"),
				report.FormatFloat(s.Y[i], "%.6g"))
		}
	}
	return c
}

// SVG renders the figure as a standalone SVG line chart.
func (f *Figure) SVG() (string, error) {
	chart := svgplot.Chart{
		Title:  fmt.Sprintf("%s: %s", f.ID, f.Title),
		XLabel: f.XLabel,
		YLabel: f.YLabel,
	}
	for _, s := range f.Series {
		chart.Series = append(chart.Series, svgplot.Series{Name: s.Name, X: s.X, Y: s.Y})
	}
	return chart.Render()
}

func seriesNames(ss []Series) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.Name
	}
	return out
}

// xUnion returns the sorted union of x values (series in this package share
// grids, so this is just the longest grid).
func xUnion(ss []Series) []float64 {
	var best []float64
	for _, s := range ss {
		if len(s.X) > len(best) {
			best = s.X
		}
	}
	return best
}

// yAt returns the y of a series at x, NaN if absent.
func yAt(s Series, x float64) float64 {
	for i, xv := range s.X {
		if xv == x {
			return s.Y[i]
		}
	}
	return math.NaN()
}

// cutoffGrid returns the swept cutoffs {2, 5, 10, 10+step, ..., D−10}. The
// low prefix matters: at extreme skew (θ = 1.40) the optimal cutoff sits
// below 10, and the paper's "delay is higher for low values of K" claim is
// only visible when the sweep reaches into the overloaded-pull regime.
func (p Params) cutoffGrid() []int {
	ks := []int{2, 5}
	for k := 10; k <= p.D-10; k += p.CutoffStep {
		ks = append(ks, k)
	}
	return ks
}

// buildConfig assembles the core configuration for one (θ, α).
func (p Params) buildConfig(theta, alpha float64) (core.Config, error) {
	cat, err := catalog.Generate(catalog.Config{
		D: p.D, Theta: theta, MinLen: 1, MaxLen: 5,
		LengthWeights: catalog.PaperLengthWeights(), Seed: p.Seed,
	})
	if err != nil {
		return core.Config{}, err
	}
	cl, err := clients.New(clients.PaperConfig())
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		Catalog:        cat,
		Classes:        cl,
		Lambda:         p.Lambda,
		Alpha:          alpha,
		Horizon:        p.Horizon,
		WarmupFraction: p.WarmupFraction,
		Seed:           p.Seed,
	}, nil
}

// DelayVsCutoff produces the per-class delay-vs-K curves for one α across
// the given skew coefficients — the engine behind Figures 3 and 4.
func DelayVsCutoff(p Params, alpha float64, thetas []float64) (*Figure, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(thetas) == 0 {
		return nil, fmt.Errorf("experiments: no thetas")
	}
	fig := &Figure{
		ID:     fmt.Sprintf("FIG-delay-alpha%.2f", alpha),
		Title:  fmt.Sprintf("Per-class delay vs cutoff, α=%.2f", alpha),
		XLabel: "K",
		YLabel: "delay (broadcast units)",
	}
	ks := p.cutoffGrid()
	xs := make([]float64, len(ks))
	for i, k := range ks {
		xs[i] = float64(k)
	}
	classNames := []string{"Class-A", "Class-B", "Class-C"}
	for _, theta := range thetas {
		cfg, err := p.buildConfig(theta, alpha)
		if err != nil {
			return nil, err
		}
		points, err := sim.SweepCutoffs(cfg, ks, p.Replications)
		if err != nil {
			return nil, err
		}
		perClass := make([][]float64, 3)
		for _, pt := range points {
			for c := 0; c < 3; c++ {
				perClass[c] = append(perClass[c], pt.Summary.MeanDelay(clients.Class(c)))
			}
		}
		for c := 0; c < 3; c++ {
			fig.Series = append(fig.Series, Series{
				Name: fmt.Sprintf("%s θ=%.2f", classNames[c], theta),
				X:    xs,
				Y:    perClass[c],
			})
		}
		fig.Claims = append(fig.Claims, claimOrdering(theta, alpha, perClass)...)
		fig.Claims = append(fig.Claims, claimLowKElevated(theta, perClass))
	}
	return fig, nil
}

// claimOrdering checks §5.2: Class-A lowest delay, Class-C highest — the
// paper states it for priority-aware scheduling, so it is only asserted for
// α < 1 (α = 1 ignores priority by construction).
func claimOrdering(theta, alpha float64, perClass [][]float64) []Claim {
	if alpha >= 1 {
		return []Claim{{
			Name:   fmt.Sprintf("θ=%.2f: α=1 gives no class differentiation", theta),
			Pass:   maxSpread(perClass) < 0.10,
			Detail: fmt.Sprintf("max relative spread %.1f%%", 100*maxSpread(perClass)),
		}}
	}
	// Where the pull mass is tiny (high θ, large K) the class delays are
	// dominated by the class-blind push system and differ only by sampling
	// noise; the ordering claim therefore tolerates inversions within 3%.
	const tol = 0.03
	violations := 0
	for i := range perClass[0] {
		a, b, c := perClass[0][i], perClass[1][i], perClass[2][i]
		if a > b*(1+tol) || b > c*(1+tol) {
			violations++
		}
	}
	return []Claim{{
		Name:   fmt.Sprintf("θ=%.2f: delay ordering A ≤ B ≤ C across cutoffs (3%% noise tolerance)", theta),
		Pass:   violations == 0,
		Detail: fmt.Sprintf("%d/%d cutoffs violate the ordering", violations, len(perClass[0])),
	}}
}

// maxSpread returns the largest relative (C−A)/mean gap across the sweep.
func maxSpread(perClass [][]float64) float64 {
	worst := 0.0
	for i := range perClass[0] {
		mean := (perClass[0][i] + perClass[1][i] + perClass[2][i]) / 3
		if mean == 0 {
			continue
		}
		spread := math.Abs(perClass[2][i]-perClass[0][i]) / mean
		if spread > worst {
			worst = spread
		}
	}
	return worst
}

// claimLowKElevated checks §5.2: "for all the classes of clients the delay
// is higher for low values of cut-off point" — the lowest swept K must not
// be the delay minimum.
func claimLowKElevated(theta float64, perClass [][]float64) Claim {
	elevated := true
	detail := ""
	for c, ys := range perClass {
		minIdx := 0
		for i, y := range ys {
			if y < ys[minIdx] {
				minIdx = i
			}
		}
		if minIdx == 0 {
			elevated = false
			detail += fmt.Sprintf("class %d minimal at lowest K; ", c)
		}
	}
	if detail == "" {
		detail = "all classes have their optimum above the lowest K"
	}
	return Claim{
		Name:   fmt.Sprintf("θ=%.2f: delay elevated at low K", theta),
		Pass:   elevated,
		Detail: detail,
	}
}

// Fig3 reproduces Figure 3: delay vs cutoff at α = 0 (pure priority),
// θ ∈ {0.20, 0.60, 1.00, 1.40}.
func Fig3(p Params) (*Figure, error) {
	f, err := DelayVsCutoff(p, 0.0, []float64{0.20, 0.60, 1.00, 1.40})
	if err != nil {
		return nil, err
	}
	f.ID = "FIG3"
	f.Title = "Delay Variation with α=0.0"
	return f, nil
}

// Fig4 reproduces Figure 4: delay vs cutoff at α = 1 (pure stretch),
// θ ∈ {0.20, 0.60, 1.00, 1.40}.
func Fig4(p Params) (*Figure, error) {
	f, err := DelayVsCutoff(p, 1.0, []float64{0.20, 0.60, 1.00, 1.40})
	if err != nil {
		return nil, err
	}
	f.ID = "FIG4"
	f.Title = "Delay Variation with α=1.0"
	return f, nil
}

// Fig5 reproduces Figure 5: per-class prioritised cost vs cutoff for
// α ∈ {0.25, 0.75} at θ = 0.60.
func Fig5(p Params) (*Figure, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "FIG5",
		Title:  "Cost Dynamics for Service Classes (θ=0.60)",
		XLabel: "K",
		YLabel: "prioritised cost q·delay",
	}
	ks := p.cutoffGrid()
	xs := make([]float64, len(ks))
	for i, k := range ks {
		xs[i] = float64(k)
	}
	classNames := []string{"Class-A", "Class-B", "Class-C"}
	for _, alpha := range []float64{0.25, 0.75} {
		cfg, err := p.buildConfig(0.60, alpha)
		if err != nil {
			return nil, err
		}
		points, err := sim.SweepCutoffs(cfg, ks, p.Replications)
		if err != nil {
			return nil, err
		}
		total := make([]float64, len(points))
		for c := 0; c < 3; c++ {
			ys := make([]float64, len(points))
			for i, pt := range points {
				ys[i] = pt.Summary.MeanCost(clients.Class(c))
				total[i] += ys[i]
			}
			fig.Series = append(fig.Series, Series{
				Name: fmt.Sprintf("%s α=%.2f", classNames[c], alpha),
				X:    xs,
				Y:    ys,
			})
		}
		// Interior optimum claim: the total-cost minimiser is not at the
		// sweep edges.
		minIdx := 0
		for i, v := range total {
			if v < total[minIdx] {
				minIdx = i
			}
		}
		fig.Claims = append(fig.Claims, Claim{
			Name: fmt.Sprintf("α=%.2f: total cost has an interior optimal cutoff", alpha),
			Pass: minIdx > 0 && minIdx < len(total)-1,
			Detail: fmt.Sprintf("optimal K=%d with total cost %.1f",
				ks[minIdx], total[minIdx]),
		})
	}
	return fig, nil
}

// Fig6 reproduces Figure 6: total optimal prioritised cost vs α for
// θ ∈ {0.20, 0.60, 1.40}: for each (θ, α) the cutoff is optimised by total
// cost and the optimal cost plotted.
func Fig6(p Params) (*Figure, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "FIG6",
		Title:  "Variation of Prioritised Cost",
		XLabel: "alpha",
		YLabel: "total optimal prioritised cost",
	}
	alphas := []float64{0, 0.25, 0.5, 0.75, 1.0}
	ks := p.cutoffGrid()
	for _, theta := range []float64{0.20, 0.60, 1.40} {
		ys := make([]float64, len(alphas))
		for i, alpha := range alphas {
			cfg, err := p.buildConfig(theta, alpha)
			if err != nil {
				return nil, err
			}
			points, err := sim.SweepCutoffs(cfg, ks, p.Replications)
			if err != nil {
				return nil, err
			}
			best, err := sim.OptimalByTotalCost(points)
			if err != nil {
				return nil, err
			}
			ys[i] = best.Summary.TotalCost.Mean()
		}
		fig.Series = append(fig.Series, Series{
			Name: fmt.Sprintf("θ=%.2f", theta),
			X:    alphas,
			Y:    ys,
		})
		fig.Claims = append(fig.Claims, Claim{
			Name: fmt.Sprintf("θ=%.2f: priority influence (α=0) cheaper than none (α=1)", theta),
			Pass: ys[0] < ys[len(ys)-1],
			Detail: fmt.Sprintf("cost %.1f at α=0 vs %.1f at α=1",
				ys[0], ys[len(ys)-1]),
		})
	}
	return fig, nil
}

// Fig7 reproduces Figure 7: analytical (refined item-level model) vs
// simulated per-class delay at θ = 0.60, α = 0.75.
func Fig7(p Params) (*Figure, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	const theta, alpha = 0.60, 0.75
	fig := &Figure{
		ID:     "FIG7",
		Title:  "Analytical vs Simulation Results (θ=0.60, α=0.75)",
		XLabel: "K",
		YLabel: "delay (broadcast units)",
	}
	cfg, err := p.buildConfig(theta, alpha)
	if err != nil {
		return nil, err
	}
	model := analytic.Model{
		Catalog:     cfg.Catalog,
		Classes:     cfg.Classes,
		LambdaTotal: p.Lambda,
		Alpha:       alpha,
		Variant:     analytic.Refined,
	}
	ks := p.cutoffGrid()
	xs := make([]float64, len(ks))
	for i, k := range ks {
		xs[i] = float64(k)
	}
	points, err := sim.SweepCutoffs(cfg, ks, p.Replications)
	if err != nil {
		return nil, err
	}
	classNames := []string{"Class-A", "Class-B", "Class-C"}
	simY := make([][]float64, 3)
	mdlY := make([][]float64, 3)
	worst := 0.0
	for i, k := range ks {
		res, err := model.AccessTime(k)
		if err != nil {
			return nil, err
		}
		for c := 0; c < 3; c++ {
			sv := points[i].Summary.MeanDelay(clients.Class(c))
			mv := res.PerClass[c].Wait
			simY[c] = append(simY[c], sv)
			mdlY[c] = append(mdlY[c], mv)
			if sv > 0 {
				if dev := math.Abs(mv-sv) / sv; dev > worst {
					worst = dev
				}
			}
		}
	}
	for c := 0; c < 3; c++ {
		fig.Series = append(fig.Series,
			Series{Name: classNames[c] + " sim", X: xs, Y: simY[c]},
			Series{Name: classNames[c] + " model", X: xs, Y: mdlY[c]},
		)
	}
	fig.Claims = append(fig.Claims, Claim{
		Name:   "analytical model tracks simulation (paper: ~10% deviation)",
		Pass:   worst <= 0.20,
		Detail: fmt.Sprintf("worst per-class relative deviation %.1f%%", 100*worst),
	})
	return fig, nil
}

// ExtBlocking is the extension experiment behind the abstract's blocking
// claim: per-class drop rate as a function of the premium class's bandwidth
// fraction, under a starved total bandwidth budget.
func ExtBlocking(p Params) (*Figure, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "EXT-BLOCK",
		Title:  "Drop rate vs premium bandwidth fraction (θ=0.60, α=0.50)",
		XLabel: "fracA",
		YLabel: "drop rate",
	}
	fracs := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7}
	classNames := []string{"Class-A", "Class-B", "Class-C"}
	cfgs := make([]core.Config, len(fracs))
	for i, fracA := range fracs {
		cfg, err := p.buildConfig(0.60, 0.50)
		if err != nil {
			return nil, err
		}
		rest := (1 - fracA) / 2
		cfg.Cutoff = p.D / 2
		cfg.Bandwidth = &bandwidth.Config{
			Total:      8,
			Fractions:  []float64{fracA, rest, rest},
			DemandMean: 1.5,
		}
		cfgs[i] = cfg
	}
	sums, err := sim.SweepConfigs(cfgs, p.Replications)
	if err != nil {
		return nil, err
	}
	drops := make([][]float64, 3)
	for _, summary := range sums {
		for c := 0; c < 3; c++ {
			drops[c] = append(drops[c], summary.PerClass[c].DropRate.Mean())
		}
	}
	for c := 0; c < 3; c++ {
		fig.Series = append(fig.Series, Series{Name: classNames[c], X: fracs, Y: drops[c]})
	}
	fig.Claims = append(fig.Claims, Claim{
		Name: "premium drop rate falls as its bandwidth fraction grows",
		Pass: drops[0][len(fracs)-1] <= drops[0][0],
		Detail: fmt.Sprintf("Class-A drop rate %.3f at frac %.1f vs %.3f at frac %.1f",
			drops[0][0], fracs[0], drops[0][len(fracs)-1], fracs[len(fracs)-1]),
	})
	return fig, nil
}

// Generator pairs a figure generator with the id cmd/figures selects it by.
type Generator struct {
	ID  string
	Run func(Params) (*Figure, error)
}

// Generators returns every figure generator in presentation order.
func Generators() []Generator {
	return []Generator{
		{"3", Fig3}, {"4", Fig4}, {"5", Fig5}, {"6", Fig6}, {"7", Fig7},
		{"blocking", ExtBlocking}, {"multiclass", ExtMultiClass}, {"channels", ExtChannels},
		{"indexing", ExtIndexing}, {"load", ExtLoad}, {"faults", ExtFaults},
		{"policy", ExtPolicy}, {"cluster", ExtCluster},
	}
}
