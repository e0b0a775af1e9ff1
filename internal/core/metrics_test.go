package core

import (
	"reflect"
	"testing"

	"hybridqos/internal/cache"
	"hybridqos/internal/stats"
	"hybridqos/internal/uplink"
)

// TestOutcomeConservation checks the per-class ledger mid-run: every counted
// arrival has reached exactly one terminal outcome or is still pending —
// queued, booked for a retry, waiting on a push, or on the pull in flight.
// The lossy cell reaches every unserved outcome; even seeds add a
// congested uplink (uplink losses) and client caches (zero-delay service).
func TestOutcomeConservation(t *testing.T) {
	outcomes := []string{"Served", "Dropped", "Expired", "UplinkLost", "Failed", "Shed"}
	seen := map[string]bool{}
	for seed := uint64(1); seed <= 6; seed++ {
		cfg := lossyUntracedConfig(t, seed)
		if seed%2 == 0 {
			tb, err := uplink.NewTokenBucket(5, 4)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Uplink = tb
			cfg.ClientCache = &CacheConfig{NumClients: 50, Capacity: 5, Policy: cache.LRU}
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		for q := 1; q <= 4; q++ {
			at := cfg.Horizon * float64(q) / 4
			s.AdvanceTo(at)
			var arrived, ended int64
			for _, cm := range s.Peek().PerClass {
				arrived += cm.Arrivals
				v := reflect.ValueOf(cm).Elem()
				for _, name := range outcomes {
					n := v.FieldByName(name).Int()
					ended += n
					seen[name] = seen[name] || n > 0
				}
			}
			pending := int64(s.PendingLoad())
			if s.pullEntry != nil {
				pending += int64(len(s.pullEntry.Requests))
			}
			if arrived != ended+pending {
				t.Errorf("seed %d, t = %g: %d arrivals, %d terminal + %d pending (off by %d)",
					seed, at, arrived, ended, pending, arrived-ended-pending)
			}
		}
		s.Finish()
	}
	for _, name := range outcomes {
		if !seen[name] {
			t.Errorf("no seed reached outcome %s: the conservation check no longer covers it", name)
		}
	}
}

// TestPoolMergesEveryField fills every counter and delay statistic of two
// runs' metrics and checks PoolMetrics adds each one up: a field added to
// ClassMetrics or Metrics that the pooling forgets fails here.
func TestPoolMergesEveryField(t *testing.T) {
	run := func(scale int64) *Metrics {
		m := &Metrics{Horizon: 100, Cutoff: 7}
		fill(t, reflect.ValueOf(m).Elem(), scale)
		for c := 0; c < 2; c++ {
			cm := &ClassMetrics{Class: 1, Weight: 0.5}
			fill(t, reflect.ValueOf(cm).Elem(), scale*int64(c+1))
			m.PerClass = append(m.PerClass, cm)
		}
		return m
	}
	a, b := run(1), run(10)
	pool := PoolMetrics(&DelaySamples{}, []*Metrics{a, b})
	if pool.Horizon != 100 || pool.Cutoff != 7 {
		t.Errorf("pooled horizon %g, cutoff %d: want the first run's", pool.Horizon, pool.Cutoff)
	}
	check(t, "Metrics", reflect.ValueOf(pool).Elem(), reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem())
	for c, cm := range pool.PerClass {
		if cm.Class != 1 || cm.Weight != 0.5 {
			t.Errorf("class %d: pooled class %d weight %g, want the first run's", c, cm.Class, cm.Weight)
		}
		check(t, "ClassMetrics", reflect.ValueOf(cm).Elem(),
			reflect.ValueOf(a.PerClass[c]).Elem(), reflect.ValueOf(b.PerClass[c]).Elem())
	}
	if PoolMetrics(nil, nil) != nil {
		t.Error("pooling no runs gave metrics")
	}
	for c, cm := range PoolMetrics(nil, []*Metrics{a, b}).PerClass {
		if cm.DelayHist != nil {
			t.Errorf("class %d: a pool that asked for no delay samples kept some", c)
		}
	}
}

// fill gives every int64 field of a metrics struct a distinct value and
// every Welford and Histogram field a distinct number of samples.
func fill(t *testing.T, v reflect.Value, scale int64) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		n := scale * int64(i+1)
		switch f := v.Field(i).Addr().Interface().(type) {
		case *int64:
			*f = n
		case *stats.Welford:
			for k := int64(0); k < n; k++ {
				f.Add(float64(k))
			}
		case **stats.Histogram:
			*f = new(stats.Histogram)
			for k := int64(0); k < n; k++ {
				(*f).Add(float64(k))
			}
		}
	}
}

// check requires each pooled int64 field to be the sum of the runs' and
// each pooled Welford and Histogram to hold both runs' samples. A field of
// any other type must be one the pool copies or leaves per-run.
func check(t *testing.T, typ string, pool, a, b reflect.Value) {
	t.Helper()
	for i := 0; i < pool.NumField(); i++ {
		name := typ + "." + pool.Type().Field(i).Name
		var got, want int64
		switch f := pool.Field(i).Addr().Interface().(type) {
		case *int64:
			got, want = *f, a.Field(i).Int()+b.Field(i).Int()
		case *stats.Welford:
			got = f.N()
			want = a.Field(i).Addr().Interface().(*stats.Welford).N() + b.Field(i).Addr().Interface().(*stats.Welford).N()
		case **stats.Histogram:
			got = int64((*f).N())
			want = int64(a.Field(i).Interface().(*stats.Histogram).N() + b.Field(i).Interface().(*stats.Histogram).N())
		default:
			switch name {
			case "ClassMetrics.Class", "ClassMetrics.Weight", "Metrics.PerClass", "Metrics.Horizon", "Metrics.Cutoff",
				"Metrics.QueueItems", "Metrics.QueueRequests", "Metrics.Bandwidth":
			default:
				t.Errorf("%s: field of type %s is neither pooled nor known to be per-run", name, pool.Field(i).Type())
			}
			continue
		}
		if got != want {
			t.Errorf("%s pooled to %d, want %d", name, got, want)
		}
	}
}
