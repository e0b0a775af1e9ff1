package main

import (
	"os"
	"reflect"
	"testing"

	"hybridqos/internal/admission"
	"hybridqos/internal/faults"
	"hybridqos/internal/qosd"
)

// TestExampleConfigAdmission pins the example config's admission section,
// and with it the JSON names the admission and faults types carry.
func TestExampleConfigAdmission(t *testing.T) {
	data, err := os.ReadFile("example-config.json")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := qosd.ParseConfig(data)
	if err != nil {
		t.Fatal(err)
	}
	want := admission.Config{
		DefaultDeadline: 500,
		Classes: []admission.ClassConfig{
			{},
			{Rate: 200, Burst: 50},
			{Rate: 100, Burst: 25, MaxPending: 200},
		},
		Shed: &faults.ShedConfig{High: 400, Low: 200, MaxShedClasses: 2},
	}
	if !reflect.DeepEqual(cfg.Admission, want) {
		t.Fatalf("admission section decoded to %+v (shed %+v), want %+v (shed %+v)",
			cfg.Admission, cfg.Admission.Shed, want, want.Shed)
	}
}
