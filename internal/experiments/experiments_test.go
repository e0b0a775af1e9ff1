package experiments

import (
	"math"
	"strings"
	"testing"

	"hybridqos/internal/policy"
)

// fastParams keeps generator tests quick; the CLI and benches use Defaults.
func fastParams() Params {
	p := Defaults()
	p.Horizon = 4000
	p.Replications = 2
	p.CutoffStep = 20
	return p
}

func TestParamsValidate(t *testing.T) {
	if err := Defaults().Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	bad := []func(*Params){
		func(p *Params) { p.D = 0 },
		func(p *Params) { p.Lambda = 0 },
		func(p *Params) { p.Horizon = -1 },
		func(p *Params) { p.Replications = 0 },
		func(p *Params) { p.CutoffStep = 0 },
		func(p *Params) { p.WarmupFraction = 1 },
	}
	for i, mutate := range bad {
		p := Defaults()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestCutoffGrid(t *testing.T) {
	p := Defaults()
	ks := p.cutoffGrid()
	if ks[0] != 2 || ks[1] != 5 || ks[2] != 10 || ks[len(ks)-1] != 90 {
		t.Fatalf("grid %v", ks)
	}
	for i := 3; i < len(ks); i++ {
		if ks[i]-ks[i-1] != p.CutoffStep {
			t.Fatalf("grid step broken: %v", ks)
		}
	}
}

func TestDelayVsCutoffShape(t *testing.T) {
	p := fastParams()
	f, err := DelayVsCutoff(p, 0.25, []float64{0.6})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 3 {
		t.Fatalf("%d series for one theta", len(f.Series))
	}
	wantPts := len(p.cutoffGrid())
	for _, s := range f.Series {
		if len(s.X) != wantPts || len(s.Y) != wantPts {
			t.Fatalf("series %s has %d/%d points, want %d", s.Name, len(s.X), len(s.Y), wantPts)
		}
		for _, y := range s.Y {
			if math.IsNaN(y) || y <= 0 {
				t.Fatalf("series %s has invalid delay %g", s.Name, y)
			}
		}
	}
	if len(f.Claims) == 0 {
		t.Fatal("no claims checked")
	}
}

func TestDelayVsCutoffErrors(t *testing.T) {
	p := fastParams()
	if _, err := DelayVsCutoff(p, 0.5, nil); err == nil {
		t.Fatal("no thetas accepted")
	}
	p.Horizon = 0
	if _, err := DelayVsCutoff(p, 0.5, []float64{0.6}); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestFig3OrderingClaims(t *testing.T) {
	p := fastParams()
	p.Horizon = 8000 // ordering needs some statistical depth
	f, err := DelayVsCutoff(p, 0.0, []float64{0.6})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range f.Claims {
		if strings.Contains(c.Name, "ordering") && !c.Pass {
			t.Fatalf("ordering claim failed: %s (%s)", c.Name, c.Detail)
		}
	}
}

func TestFig5InteriorOptimum(t *testing.T) {
	p := fastParams()
	p.CutoffStep = 10
	f, err := Fig5(p)
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != "FIG5" {
		t.Fatalf("ID = %s", f.ID)
	}
	if len(f.Series) != 6 {
		t.Fatalf("%d series", len(f.Series))
	}
	if len(f.Claims) != 2 {
		t.Fatalf("%d claims", len(f.Claims))
	}
}

func TestFig7DeviationClaim(t *testing.T) {
	p := fastParams()
	p.Horizon = 10000
	f, err := Fig7(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 6 {
		t.Fatalf("%d series (want sim+model × 3 classes)", len(f.Series))
	}
	if len(f.Claims) != 1 {
		t.Fatalf("%d claims", len(f.Claims))
	}
	if !f.Claims[0].Pass {
		t.Fatalf("model deviation claim failed: %s", f.Claims[0].Detail)
	}
}

func TestExtBlockingMonotoneClaim(t *testing.T) {
	p := fastParams()
	f, err := ExtBlocking(p)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Claims[0].Pass {
		t.Fatalf("blocking claim failed: %s", f.Claims[0].Detail)
	}
	// Drop rates are probabilities.
	for _, s := range f.Series {
		for _, y := range s.Y {
			if y < 0 || y > 1 {
				t.Fatalf("drop rate %g outside [0,1]", y)
			}
		}
	}
}

func TestFigureTableAndCSV(t *testing.T) {
	p := fastParams()
	f, err := DelayVsCutoff(p, 0.5, []float64{0.6})
	if err != nil {
		t.Fatal(err)
	}
	tbl := f.Table().String()
	if !strings.Contains(tbl, "Class-A θ=0.60") {
		t.Fatalf("table missing series header: %q", tbl)
	}
	csv := f.CSV()
	wantRows := len(f.Series) * len(f.Series[0].X)
	if rows := strings.Count(csv.String(), "\n") - 1; rows != wantRows {
		t.Fatalf("CSV rows %d, want %d", rows, wantRows)
	}
	if !strings.HasPrefix(csv.String(), "figure,series,K,") {
		t.Fatalf("CSV header wrong: %q", strings.SplitN(csv.String(), "\n", 2)[0])
	}
}

func TestYAtAndXUnion(t *testing.T) {
	s := Series{X: []float64{1, 2}, Y: []float64{10, 20}}
	if yAt(s, 2) != 20 {
		t.Fatal("yAt wrong")
	}
	if !math.IsNaN(yAt(s, 3)) {
		t.Fatal("yAt missing x not NaN")
	}
	u := xUnion([]Series{s, {X: []float64{1, 2, 3}}})
	if len(u) != 3 {
		t.Fatalf("xUnion %v", u)
	}
}

func TestExtMultiClass(t *testing.T) {
	p := fastParams()
	p.Horizon = 8000
	f, err := ExtMultiClass(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 5 {
		t.Fatalf("%d series, want 5 classes", len(f.Series))
	}
	if f.Series[0].Name != "Class-A" || f.Series[4].Name != "Class-E" {
		t.Fatalf("series names: %s .. %s", f.Series[0].Name, f.Series[4].Name)
	}
	for _, c := range f.Claims {
		if !c.Pass {
			t.Fatalf("claim failed: %s — %s", c.Name, c.Detail)
		}
	}
}

func TestExtChannels(t *testing.T) {
	p := fastParams()
	p.Horizon = 6000
	f, err := ExtChannels(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 4 { // 3 classes + overall
		t.Fatalf("%d series", len(f.Series))
	}
	for _, s := range f.Series {
		if len(s.X) != 3 { // splits 1/3, 2/2, 3/1
			t.Fatalf("series %s has %d points", s.Name, len(s.X))
		}
		for _, y := range s.Y {
			if math.IsNaN(y) || y <= 0 {
				t.Fatalf("series %s invalid delay %g", s.Name, y)
			}
		}
	}
}

func TestExtIndexing(t *testing.T) {
	f, err := ExtIndexing(fastParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 2 {
		t.Fatalf("%d series", len(f.Series))
	}
	for _, c := range f.Claims {
		if !c.Pass {
			t.Fatalf("claim failed: %s — %s", c.Name, c.Detail)
		}
	}
}

// tinyParams minimises runtime for whole-pipeline coverage tests.
func tinyParams() Params {
	p := Defaults()
	p.Horizon = 1500
	p.Replications = 1
	p.CutoffStep = 40
	return p
}

func TestFig3And4EndToEnd(t *testing.T) {
	f3, err := Fig3(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if f3.ID != "FIG3" || len(f3.Series) != 12 { // 3 classes × 4 thetas
		t.Fatalf("FIG3 shape: id=%s series=%d", f3.ID, len(f3.Series))
	}
	f4, err := Fig4(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if f4.ID != "FIG4" || len(f4.Series) != 12 {
		t.Fatalf("FIG4 shape: id=%s series=%d", f4.ID, len(f4.Series))
	}
}

func TestFig6EndToEnd(t *testing.T) {
	f, err := Fig6(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != "FIG6" || len(f.Series) != 3 {
		t.Fatalf("FIG6 shape: id=%s series=%d", f.ID, len(f.Series))
	}
	for _, s := range f.Series {
		if len(s.X) != 5 { // α grid
			t.Fatalf("series %s has %d points", s.Name, len(s.X))
		}
	}
}

func TestAllRunsEveryGenerator(t *testing.T) {
	gens := Generators()
	if len(gens) != 13 {
		t.Fatalf("Generators returned %d generators, want 13", len(gens))
	}
	seen := map[string]bool{}
	for _, g := range gens {
		f, err := g.Run(tinyParams())
		if err != nil {
			t.Fatalf("%s: %v", g.ID, err)
		}
		if seen[f.ID] {
			t.Fatalf("duplicate figure id %s", f.ID)
		}
		seen[f.ID] = true
	}
	for _, id := range []string{"FIG3", "FIG4", "FIG5", "FIG6", "FIG7", "EXT-BLOCK", "EXT-MULTI", "EXT-CHAN", "EXT-INDEX", "EXT-LOAD", "EXT-FAULTS", "EXT-POLICY", "EXT-CLUSTER"} {
		if !seen[id] {
			t.Fatalf("missing figure %s", id)
		}
	}
}

func TestGeneratorsRejectInvalidParams(t *testing.T) {
	bad := tinyParams()
	bad.Replications = 0
	for name, gen := range map[string]func(Params) (*Figure, error){
		"Fig3": Fig3, "Fig4": Fig4, "Fig5": Fig5, "Fig6": Fig6, "Fig7": Fig7,
		"ExtBlocking": ExtBlocking, "ExtMultiClass": ExtMultiClass,
		"ExtChannels": ExtChannels, "ExtIndexing": ExtIndexing, "ExtLoad": ExtLoad,
		"ExtFaults": ExtFaults, "ExtCluster": ExtCluster,
	} {
		if _, err := gen(bad); err == nil {
			t.Errorf("%s accepted invalid params", name)
		}
	}
	for _, g := range Generators() {
		if _, err := g.Run(bad); err == nil {
			t.Errorf("generator %s accepted invalid params", g.ID)
		}
	}
}

func TestExtLoad(t *testing.T) {
	p := fastParams()
	p.Horizon = 8000
	f, err := ExtLoad(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 3 {
		t.Fatalf("%d series", len(f.Series))
	}
	for _, c := range f.Claims {
		if !c.Pass {
			t.Fatalf("claim failed: %s — %s", c.Name, c.Detail)
		}
	}
	// Delay must be non-trivially higher at the top load than the bottom.
	ys := f.Series[2].Y
	if ys[len(ys)-1] <= ys[0] {
		t.Fatalf("delay not increasing with load: %v", ys)
	}
}

func TestFigureSVG(t *testing.T) {
	f, err := ExtIndexing(fastParams())
	if err != nil {
		t.Fatal(err)
	}
	svg, err := f.SVG()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg, "<svg") || !strings.Contains(svg, "EXT-INDEX") {
		t.Fatal("SVG rendering incomplete")
	}
}

func TestExtFaults(t *testing.T) {
	p := fastParams()
	p.Horizon = 8000
	f, err := ExtFaults(p)
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != "EXT-FAULTS" || len(f.Series) != 9 {
		t.Fatalf("id %s, %d series", f.ID, len(f.Series))
	}
	for _, c := range f.Claims {
		if !c.Pass {
			t.Fatalf("claim failed: %s — %s", c.Name, c.Detail)
		}
	}
}

func TestExtPolicyClaims(t *testing.T) {
	p := fastParams()
	p.Horizon = 8000 // class spread needs statistical depth
	f, err := ExtPolicy(p)
	if err != nil {
		t.Fatal(err)
	}
	// One series per registered pull policy and per non-default push
	// scheduler, so the figure exercises every policy end to end.
	names := map[string]bool{}
	for _, s := range f.Series {
		names[s.Name] = true
	}
	want := 0
	for _, name := range policy.PullNames() {
		want++
		if !names["pull="+name] {
			t.Errorf("no series for pull policy %s", name)
		}
	}
	for _, name := range policy.PushNames() {
		if name == policy.DefaultPush {
			continue
		}
		want++
		if !names["push="+name] {
			t.Errorf("no series for push scheduler %s", name)
		}
	}
	if len(f.Series) != want {
		t.Fatalf("%d series, want %d", len(f.Series), want)
	}
	for _, s := range f.Series {
		if len(s.X) != 3 || len(s.Y) != 3 {
			t.Fatalf("series %s has %d/%d points", s.Name, len(s.X), len(s.Y))
		}
	}
	for _, c := range f.Claims {
		if !c.Pass {
			t.Errorf("claim %q failed: %s", c.Name, c.Detail)
		}
	}
}
