package qosd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"hybridqos/internal/admission"
	"hybridqos/internal/clock"
)

// CatalogConfig parameterises the served item database (the same generator
// the simulator uses, so a daemon and a sim run can share a catalog).
type CatalogConfig struct {
	D      int     `json:"d"`
	Theta  float64 `json:"theta"`
	MinLen int     `json:"min_len"`
	MaxLen int     `json:"max_len"`
	Seed   uint64  `json:"seed"`
}

// AdmissionConfig is the admission section of the daemon configuration:
// the admission package's own Config, whose JSON names are the daemon's.
// Its classes may be omitted or short; missing classes are fully open.
type AdmissionConfig = admission.Config

// Config is the qosd daemon configuration, loaded from JSON.
type Config struct {
	Catalog CatalogConfig `json:"catalog"`
	// ClassWeights are the per-class priority weights, premium first
	// (strictly decreasing, as in the paper's classification).
	ClassWeights []float64 `json:"class_weights"`
	// Cutoff is K: items 1..K broadcast, K+1..D on demand.
	Cutoff int `json:"cutoff"`
	// Alpha is the importance-factor mixing fraction for the gamma policy.
	Alpha float64 `json:"alpha"`
	// PullPolicy and PushPolicy name registry policies ("" = paper defaults).
	PullPolicy string `json:"pull_policy,omitempty"`
	PushPolicy string `json:"push_policy,omitempty"`
	PushDisks  int    `json:"push_disks,omitempty"`
	// UnitMillis maps one broadcast unit onto wall milliseconds.
	UnitMillis float64 `json:"unit_ms"`
	// Keys maps API keys to 0-based service classes.
	Keys map[string]int `json:"keys"`
	// DefaultClass serves requests with an unknown or missing API key:
	// a class index, or -1 to reject them with 401. Omitted means -1.
	DefaultClass *int `json:"default_class,omitempty"`
	// Admission configures the class-aware front door.
	Admission AdmissionConfig `json:"admission"`
	// Spans enables per-request span recording, served at /debug/spans.
	Spans *SpansConfig `json:"spans,omitempty"`
}

// SpansConfig is the span-recording section of the daemon configuration.
type SpansConfig struct {
	// Rate is the head-sampling probability in [0,1].
	Rate float64 `json:"rate"`
	// Buffer is the completed-span ring capacity (0 = default 64).
	Buffer int `json:"buffer,omitempty"`
	// Seed seeds the sampling stream (deterministic under the virtual
	// clock; under the wall clock it only sets which arrivals sample).
	Seed uint64 `json:"seed,omitempty"`
}

// ParseConfig decodes and validates a JSON daemon configuration. Unknown
// fields are rejected: a typo in an admission bound must not silently
// leave the door open.
func ParseConfig(data []byte) (Config, error) {
	var cfg Config
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("qosd: parsing config: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Config{}, fmt.Errorf("qosd: trailing data after config object")
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// defaultClass resolves the DefaultClass pointer (-1 when omitted).
func (c Config) defaultClass() int {
	if c.DefaultClass == nil {
		return -1
	}
	return *c.DefaultClass
}

// Validate reports whether New would build the configuration, by building
// it on a throwaway virtual clock: the catalog, clients, core and admission
// constructors judge the cell, and engine checks only the serving fields
// they never see.
func (c Config) Validate() error {
	_, err := c.engine(clock.NewVirtual())
	return err
}

// sortedKeys returns m's keys in sorted order (the repository's maporder
// contract: map iteration only ever happens through a sorted key list).
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
