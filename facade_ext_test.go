package hybridqos

import (
	"bytes"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hybridqos/internal/trace"
)

func TestRotationDegradesStalePushSet(t *testing.T) {
	static := quickConfig()
	static.Horizon = 8000
	a, err := Simulate(static)
	if err != nil {
		t.Fatal(err)
	}
	rotating := static
	rotating.Rotation = &RotationConfig{Period: 1500, Shift: 25}
	b, err := Simulate(rotating)
	if err != nil {
		t.Fatal(err)
	}
	if b.OverallDelay <= a.OverallDelay {
		t.Fatalf("rotation did not degrade delay: %g vs %g", b.OverallDelay, a.OverallDelay)
	}
}

func TestRotationValidation(t *testing.T) {
	c := quickConfig()
	c.Rotation = &RotationConfig{Period: 0, Shift: 1}
	if _, err := Simulate(c); err == nil {
		t.Fatal("zero rotation period accepted")
	}
	c.Rotation = &RotationConfig{Period: 10, Shift: 0}
	if _, err := Simulate(c); err == nil {
		t.Fatal("zero shift accepted")
	}
}

func TestRequestTTLExposed(t *testing.T) {
	c := quickConfig()
	c.RequestTTL = 25
	c.Horizon = 6000
	r, err := Simulate(c)
	if err != nil {
		t.Fatal(err)
	}
	var expired int64
	for _, cr := range r.PerClass {
		expired += cr.Expired
	}
	if expired == 0 {
		t.Fatal("tight TTL produced no expiries via the facade")
	}
	c.RequestTTL = -1
	if _, err := Simulate(c); err == nil {
		t.Fatal("negative TTL accepted")
	}
}

func TestUplinkExposed(t *testing.T) {
	c := quickConfig()
	c.Uplink = &UplinkConfig{Rate: 0.4, Burst: 2}
	c.Horizon = 6000
	r, err := Simulate(c)
	if err != nil {
		t.Fatal(err)
	}
	var lost int64
	for _, cr := range r.PerClass {
		lost += cr.UplinkLost
	}
	if lost == 0 {
		t.Fatal("starved uplink lost nothing via the facade")
	}
	c.Uplink = &UplinkConfig{Rate: 0, Burst: 2}
	if _, err := Simulate(c); err == nil {
		t.Fatal("zero uplink rate accepted")
	}
}

func TestWriteAndReadTrace(t *testing.T) {
	c := quickConfig()
	c.Horizon = 1000
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	n, err := WriteTrace(c, path)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no events written")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := trace.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := 0
	prev := math.Inf(-1)
	for _, e := range events {
		if e.Kind != trace.KindArrival {
			continue
		}
		arrivals++
		if e.T < prev {
			t.Fatal("arrival times not monotone")
		}
		prev = e.T
		if e.Item < 1 || e.Item > c.NumItems {
			t.Fatalf("rank %d out of range", e.Item)
		}
	}
	if arrivals == 0 {
		t.Fatal("no arrivals in the trace")
	}
	dir := t.TempDir()
	if _, err := ExportTimeline(filepath.Join(dir, "missing.jsonl"), filepath.Join(dir, "tl")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing trace file: err = %v, want fs.ErrNotExist", err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
}

func TestWriteTraceInvalidConfig(t *testing.T) {
	c := quickConfig()
	c.Lambda = -1
	if _, err := WriteTrace(c, filepath.Join(t.TempDir(), "x.jsonl")); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestConfigJSONRoundTrip(t *testing.T) {
	c := PaperConfig()
	c.Bandwidth = &BandwidthConfig{Total: 8, Fractions: []float64{0.5, 0.3, 0.2}, DemandMean: 1.5}
	c.Rotation = &RotationConfig{Period: 100, Shift: 3}
	c.Uplink = &UplinkConfig{Rate: 4, Burst: 8}
	c.RequestTTL = 50
	c.PullPolicy = PolicyEDF
	c.PushScheduler = PushBroadcastDisk
	c.PushDisks = 4
	path := filepath.Join(t.TempDir(), "cfg.json")
	if err := SaveConfig(c, path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumItems != c.NumItems || got.Theta != c.Theta || got.RequestTTL != 50 {
		t.Fatalf("round trip lost scalars: %+v", got)
	}
	if got.Bandwidth == nil || got.Bandwidth.Total != 8 {
		t.Fatal("round trip lost bandwidth")
	}
	if got.Rotation == nil || got.Rotation.Shift != 3 {
		t.Fatal("round trip lost rotation")
	}
	if got.Uplink == nil || got.Uplink.Burst != 8 {
		t.Fatal("round trip lost uplink")
	}
	if got.PullPolicy != PolicyEDF || got.PushScheduler != PushBroadcastDisk || got.PushDisks != 4 {
		t.Fatalf("round trip lost policy selection: %q/%q/%d",
			got.PullPolicy, got.PushScheduler, got.PushDisks)
	}
	// The loaded config must simulate: policy names resolve through the
	// registry after deserialisation.
	got.Horizon = 2000
	got.Replications = 1
	if _, err := Simulate(got); err != nil {
		t.Fatalf("loaded config does not simulate: %v", err)
	}
}

func TestLoadConfigRejectsInvalid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"NumItems": -5}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadConfig(path); err == nil {
		t.Fatal("invalid config loaded")
	}
	if err := os.WriteFile(path, []byte(`{not json`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadConfig(path); err == nil {
		t.Fatal("malformed JSON loaded")
	}
	if _, err := LoadConfig(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file loaded")
	}
}

// TestLoadConfigRejectsUnknownAndTrailing: a misspelt field must not load as
// a default (a "Cutof" typo would otherwise run at K=0), and nothing may
// follow the config object.
func TestLoadConfigRejectsUnknownAndTrailing(t *testing.T) {
	dir := t.TempDir()
	saved := filepath.Join(dir, "cfg.json")
	if err := SaveConfig(PaperConfig(), saved); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(saved)
	if err != nil {
		t.Fatal(err)
	}
	typo := bytes.Replace(good, []byte(`"Cutoff"`), []byte(`"Cutof"`), 1)
	for name, data := range map[string][]byte{
		"unknown field":   typo,
		"second object":   append(append([]byte{}, good...), []byte("{}")...),
		"stray delimiter": append(append([]byte{}, good...), '}'),
	} {
		path := filepath.Join(dir, "bad.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadConfig(path)
		if err == nil || !strings.HasPrefix(err.Error(), "hybridqos: ") {
			t.Errorf("%s: LoadConfig error = %v, want a hybridqos: error", name, err)
		}
	}
	if _, err := LoadConfig(saved); err != nil {
		t.Fatalf("the saved config itself must still load: %v", err)
	}
}

func TestClientCacheExposed(t *testing.T) {
	c := quickConfig()
	c.Horizon = 8000
	c.ClientCache = &ClientCacheConfig{NumClients: 15, Capacity: 8} // default pix
	r, err := Simulate(c)
	if err != nil {
		t.Fatal(err)
	}
	var hits int64
	for _, cr := range r.PerClass {
		hits += cr.CacheHits
	}
	if hits == 0 {
		t.Fatal("no cache hits via facade")
	}
	for _, policy := range []string{"lru", "lfu", "pix"} {
		c.ClientCache.Policy = policy
		if _, err := Simulate(c); err != nil {
			t.Fatalf("policy %s: %v", policy, err)
		}
	}
	c.ClientCache.Policy = "nonsense"
	if _, err := Simulate(c); err == nil {
		t.Fatal("unknown cache policy accepted")
	}
	c.ClientCache = &ClientCacheConfig{NumClients: 0, Capacity: 8}
	if _, err := Simulate(c); err == nil {
		t.Fatal("zero clients accepted")
	}
}

func TestIndexingFacade(t *testing.T) {
	c := quickConfig()
	plan, err := PlanIndexing(c, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if plan.M < 2 || plan.M > c.Cutoff {
		t.Fatalf("m* = %d implausible", plan.M)
	}
	if !(plan.TuningTime < plan.AccessTime) || plan.DozeFraction <= 0.5 {
		t.Fatalf("plan: %+v", plan)
	}
	sweep, err := SweepIndexing(c, 0.5, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != c.Cutoff {
		t.Fatalf("sweep length %d, want clamp at K=%d", len(sweep), c.Cutoff)
	}
	for _, p := range sweep {
		if p.AccessTime < plan.AccessTime {
			t.Fatalf("PlanIndexing missed better m=%d", p.M)
		}
	}
	if _, err := PlanIndexing(c, 0); err == nil {
		t.Fatal("zero index length accepted")
	}
	bad := c
	bad.Lambda = -1
	if _, err := SweepIndexing(bad, 0.5, 10); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestErrorPathsOnInvalidConfig(t *testing.T) {
	bad := quickConfig()
	bad.NumItems = 0
	if _, err := Predict(bad); err == nil {
		t.Fatal("Predict accepted invalid config")
	}
	if _, err := PredictSweep(bad, 1, 10); err == nil {
		t.Fatal("PredictSweep accepted invalid config")
	}
	if _, err := PredictOptimalCutoff(bad, 1, 10); err == nil {
		t.Fatal("PredictOptimalCutoff accepted invalid config")
	}
	if _, err := OptimizeCutoff(bad, 1, 10, 5, "cost"); err == nil {
		t.Fatal("OptimizeCutoff accepted invalid config")
	}
	if _, err := PlanIndexing(bad, 0.5); err == nil {
		t.Fatal("PlanIndexing accepted invalid config")
	}
}

func TestPredictSweepRangeErrors(t *testing.T) {
	c := quickConfig()
	if _, err := PredictSweep(c, 10, 5); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, err := PredictOptimalCutoff(c, -1, 10); err == nil {
		t.Fatal("negative kMin accepted")
	}
}

func TestWriteTraceBadPath(t *testing.T) {
	c := quickConfig()
	c.Horizon = 200
	if _, err := WriteTrace(c, filepath.Join(t.TempDir(), "no-such-dir", "x.jsonl")); err == nil {
		t.Fatal("unwritable path accepted")
	}
}

func TestSaveConfigBadPath(t *testing.T) {
	if err := SaveConfig(PaperConfig(), filepath.Join(t.TempDir(), "no-such-dir", "cfg.json")); err == nil {
		t.Fatal("unwritable path accepted")
	}
}

func TestOptimizeCutoffWithUplinkHonorsChannel(t *testing.T) {
	// The per-run hook must apply during sweeps too: a starved uplink
	// produces uplink losses in the best point's classes.
	c := quickConfig()
	c.Horizon = 2000
	c.Replications = 1
	c.Uplink = &UplinkConfig{Rate: 0.3, Burst: 2}
	best, err := OptimizeCutoff(c, 30, 60, 30, "cost")
	if err != nil {
		t.Fatal(err)
	}
	var lost int64
	for _, cr := range best.PerClass {
		lost += cr.UplinkLost
	}
	if lost == 0 {
		t.Fatal("sweep ignored the uplink configuration")
	}
}

func TestRunClosedLoopFacade(t *testing.T) {
	c := quickConfig()
	c.Theta = 1.0
	epochs, err := RunClosedLoop(c, 3, 4000, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 3 {
		t.Fatalf("%d epochs", len(epochs))
	}
	if epochs[0].Cutoff != c.Cutoff {
		t.Fatalf("epoch 0 cutoff %d", epochs[0].Cutoff)
	}
	if epochs[0].ThetaHat == 0 {
		t.Fatal("no workload fit after epoch 0")
	}
	frozen, err := RunClosedLoop(c, 2, 2000, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	if frozen[1].NextCutoff != c.Cutoff {
		t.Fatal("frozen loop re-planned")
	}
	bad := c
	bad.Lambda = -1
	if _, err := RunClosedLoop(bad, 2, 2000, 5, true); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := RunClosedLoop(c, 0, 2000, 5, true); err == nil {
		t.Fatal("zero epochs accepted")
	}
}

// TestRunClosedLoopRejectsUnmodelledFields: each field the closed loop
// would ignore is refused by name instead of leaving the epochs unchanged.
func TestRunClosedLoopRejectsUnmodelledFields(t *testing.T) {
	for _, tc := range []struct {
		field string
		set   func(*Config)
	}{
		{"PullPolicy", func(c *Config) { c.PullPolicy = PolicyFCFS }},
		{"PushScheduler", func(c *Config) { c.PushScheduler = PushNone }},
		{"Bandwidth", func(c *Config) {
			c.Bandwidth = &BandwidthConfig{Total: 30, Fractions: []float64{0.5, 0.3, 0.2}, DemandMean: 2}
		}},
		{"Faults", func(c *Config) { c.Faults = &FaultsConfig{LossProb: 0.5} }},
		{"Uplink", func(c *Config) { c.Uplink = &UplinkConfig{Rate: 1, Burst: 1} }},
		{"ClientCache", func(c *Config) { c.ClientCache = &ClientCacheConfig{NumClients: 10, Capacity: 5} }},
		{"Rotation", func(c *Config) { c.Rotation = &RotationConfig{Period: 100, Shift: 1} }},
		{"RequestTTL", func(c *Config) { c.RequestTTL = 50 }},
		{"Telemetry", func(c *Config) { c.Telemetry = &TelemetryConfig{SnapshotEvery: 100} }},
		{"Spans", func(c *Config) { c.Spans = &SpanTraceConfig{} }},
		{"Cluster", func(c *Config) { c.Cluster = &ClusterOptions{Cells: 2} }},
	} {
		c := quickConfig()
		tc.set(&c)
		_, err := RunClosedLoop(c, 2, 500, 5, true)
		if err == nil || !strings.Contains(err.Error(), "Config."+tc.field) {
			t.Errorf("%s set: err = %v, want one naming Config.%s", tc.field, err, tc.field)
		}
	}
}
