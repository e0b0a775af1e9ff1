package core

import (
	"testing"

	"hybridqos/internal/uplink"
)

func TestUplinkLossesCounted(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Horizon = 10000
	tb, err := uplink.NewTokenBucket(0.5, 2) // far below the pull request rate
	if err != nil {
		t.Fatal(err)
	}
	cfg.Uplink = tb
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var lost int64
	for _, cm := range m.PerClass {
		lost += cm.UplinkLost
	}
	if lost == 0 {
		t.Fatal("starved uplink lost no requests")
	}
	// Served + uplink-lost cannot exceed arrivals.
	for c, cm := range m.PerClass {
		if cm.Served+cm.Dropped+cm.UplinkLost > cm.Arrivals {
			t.Fatalf("class %d accounting broken: served %d + dropped %d + uplinkLost %d > arrivals %d",
				c, cm.Served, cm.Dropped, cm.UplinkLost, cm.Arrivals)
		}
	}
}

func TestUplinkReducesPullLoad(t *testing.T) {
	free, err := Run(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	throttled := baseConfig(t)
	tb, err := uplink.NewTokenBucket(0.3, 2)
	if err != nil {
		t.Fatal(err)
	}
	throttled.Uplink = tb
	thr, err := Run(throttled)
	if err != nil {
		t.Fatal(err)
	}
	if thr.QueueRequests.Mean() >= free.QueueRequests.Mean() {
		t.Fatalf("throttled uplink did not shrink pending requests: %g vs %g",
			thr.QueueRequests.Mean(), free.QueueRequests.Mean())
	}
}

func TestUnlimitedUplinkNoLosses(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Uplink = uplink.Unlimited{}
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, cm := range m.PerClass {
		if cm.UplinkLost != 0 {
			t.Fatal("unlimited uplink lost requests")
		}
	}
}
