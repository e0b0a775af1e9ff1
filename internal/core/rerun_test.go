package core

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"hybridqos/internal/trace"
	"hybridqos/internal/uplink"
	"hybridqos/internal/workload"
)

// rerunConfig is one Config value holding every kind of state a run
// advances: the lossy cell's Gilbert–Elliott chain and Bursty MMPP, an
// uplink token bucket, and a rotating hot set besides.
func rerunConfig(t *testing.T) Config {
	cfg := lossyUntracedConfig(t, 3)
	tb, err := uplink.NewTokenBucket(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	rot, err := workload.NewRotatingPopularity(cfg.Catalog, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Uplink, cfg.Items = tb, rot
	return cfg
}

// tracedRun runs cfg with a JSONL tracer of its own and returns the metrics
// and the trace.
func tracedRun(cfg Config) (*Metrics, []byte, error) {
	var out bytes.Buffer
	j := trace.NewJSONL(&out)
	cfg.Tracer = j
	m, err := Run(cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := j.Flush(); err != nil {
		return nil, nil, err
	}
	return m, out.Bytes(), nil
}

// TestConfigRunsTwice runs one Config value again and again, in sequence
// and then four times in parallel: each run starts its own loss chain, token
// bucket and MMPP, so every run writes the first run's trace byte for byte
// and ends with its metrics.
func TestConfigRunsTwice(t *testing.T) {
	cfg := rerunConfig(t)
	wantM, wantT, err := tracedRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, m *Metrics, tr []byte) {
		t.Helper()
		if !bytes.Equal(tr, wantT) {
			t.Errorf("%s: trace (%d bytes) differs from the first run's (%d bytes)", name, len(tr), len(wantT))
		}
		if !reflect.DeepEqual(m, wantM) {
			t.Errorf("%s: metrics differ from the first run's", name)
		}
	}
	m, tr, err := tracedRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	check("second run", m, tr)

	const parallel = 4
	ms := make([]*Metrics, parallel)
	trs := make([][]byte, parallel)
	errs := make([]error, parallel)
	var wg sync.WaitGroup
	for i := range parallel {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ms[i], trs[i], errs[i] = tracedRun(cfg)
		}()
	}
	wg.Wait()
	for i := range parallel {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		check("parallel run", ms[i], trs[i])
	}
}
