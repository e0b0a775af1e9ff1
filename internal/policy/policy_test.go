package policy

import (
	"errors"
	"fmt"
	"testing"

	"hybridqos/internal/catalog"
	"hybridqos/internal/pullqueue"
	"hybridqos/internal/sched"
)

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat, err := catalog.Generate(catalog.Config{
		D: 50, Theta: 0.6, MinLen: 1, MaxLen: 5,
		LengthWeights: catalog.PaperLengthWeights(), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestBuiltinPullPolicies(t *testing.T) {
	p := Params{Alpha: 0.5, TTL: 100}
	for _, name := range PullNames() {
		pol, err := NewPull(name, p)
		if err != nil {
			t.Errorf("NewPull(%q): %v", name, err)
			continue
		}
		if pol.Name() == "" {
			t.Errorf("%q built a policy with an empty name", name)
		}
	}
	// Empty name resolves to the default (gamma with Params.Alpha).
	pol, err := NewPull("", p)
	if err != nil {
		t.Fatal(err)
	}
	gamma, ok := pol.(sched.ImportanceFactor)
	if !ok || gamma.Alpha != 0.5 {
		t.Fatalf("default pull policy = %#v, want ImportanceFactor{0.5}", pol)
	}
}

func TestBuiltinPushSchedulers(t *testing.T) {
	p := Params{Catalog: testCatalog(t), Cutoff: 20}
	for _, name := range PushNames() {
		ps, err := NewPush(name, p)
		if err != nil {
			t.Errorf("NewPush(%q): %v", name, err)
			continue
		}
		if ps.Name() == "" {
			t.Errorf("%q built a scheduler with an empty name", name)
		}
	}
	ps, err := NewPush("", p)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ps.(*sched.FlatRoundRobin); !ok {
		t.Fatalf("default push scheduler = %#v, want FlatRoundRobin", ps)
	}
}

func TestAliasesResolve(t *testing.T) {
	p := Params{Alpha: 0.25, Catalog: testCatalog(t), Cutoff: 10}
	pol, err := NewPull("importance-factor", p)
	if err != nil {
		t.Fatal(err)
	}
	if g, ok := pol.(sched.ImportanceFactor); !ok || g.Alpha != 0.25 {
		t.Fatalf("alias importance-factor built %#v", pol)
	}
	ps, err := NewPush("flat", p)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ps.(*sched.FlatRoundRobin); !ok {
		t.Fatalf("alias flat built %#v", ps)
	}
}

func TestUnknownNameError(t *testing.T) {
	var ue *UnknownError
	if _, err := NewPull("nonsense", Params{}); !errors.As(err, &ue) {
		t.Fatalf("pull error = %v, want UnknownError", err)
	} else if ue.Kind != "pull" || len(ue.Known) == 0 {
		t.Fatalf("UnknownError = %+v", ue)
	}
	if _, err := NewPush("nonsense", Params{}); !errors.As(err, &ue) {
		t.Fatalf("push error = %v, want UnknownError", err)
	}
	if KnownPush("nonsense") {
		t.Fatal("nonsense reported known")
	}
	if !KnownPush("roundrobin") || !KnownPush("flat") || !KnownPush("none") {
		t.Fatal("built-in name reported unknown")
	}
}

func TestDuplicateRegistrationError(t *testing.T) {
	name := "test-dup-policy"
	f := func(Params) (sched.PullPolicy, error) { return sched.FCFS{}, nil }
	if err := RegisterPull(name, f); err != nil {
		t.Fatal(err)
	}
	var de *DuplicateError
	if err := RegisterPull(name, f); !errors.As(err, &de) {
		t.Fatalf("duplicate registration error = %v, want DuplicateError", err)
	}
	// Canonical and alias names are equally protected.
	if err := RegisterPull("gamma", f); !errors.As(err, &de) {
		t.Fatalf("re-registering gamma: %v", err)
	}
	if err := RegisterPull("importance-factor", f); !errors.As(err, &de) {
		t.Fatalf("re-registering alias: %v", err)
	}
	if err := RegisterPush("roundrobin", func(Params) (sched.PushScheduler, error) {
		return sched.NoPush{}, nil
	}); !errors.As(err, &de) {
		t.Fatalf("re-registering push: %v", err)
	}
	if err := RegisterPull("", f); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestExternalRegistrationUsable(t *testing.T) {
	name := "test-reverse-fcfs"
	if err := RegisterPull(name, func(Params) (sched.PullPolicy, error) {
		return reverseFCFS{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	pol, err := NewPull(name, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if pol.Name() != "reverse-fcfs" {
		t.Fatalf("external policy Name = %q", pol.Name())
	}
}

type reverseFCFS struct{}

func (reverseFCFS) Name() string                                { return "reverse-fcfs" }
func (reverseFCFS) Score(e *pullqueue.Entry, _ float64) float64 { return e.FirstArrival }
func (reverseFCFS) TimeDependent() bool                         { return false }

func TestGammaFactoryValidatesAlpha(t *testing.T) {
	if _, err := NewPull("gamma", Params{Alpha: 1.5}); err == nil {
		t.Fatal("alpha 1.5 accepted")
	}
	var ae *pullqueue.AlphaError
	if _, err := NewPull("gamma", Params{Alpha: -0.1}); !errors.As(err, &ae) {
		t.Fatal("gamma factory error is not pullqueue.AlphaError")
	}
}

func TestPushFactoryParamValidation(t *testing.T) {
	cat := testCatalog(t)
	if _, err := NewPush("roundrobin", Params{Cutoff: 0}); err == nil {
		t.Fatal("roundrobin with cutoff 0 accepted")
	}
	if _, err := NewPush("broadcast-disk", Params{Catalog: cat, Cutoff: 0}); err == nil {
		t.Fatal("broadcast-disk with cutoff 0 accepted")
	}
	if _, err := NewPush("broadcast-disk", Params{Catalog: nil, Cutoff: 10}); err == nil {
		t.Fatal("broadcast-disk with nil catalog accepted")
	}
	// Disks 0 → default; explicit disks respected.
	for _, disks := range []int{0, 2, 5} {
		if _, err := NewPush("broadcast-disk", Params{Catalog: cat, Cutoff: 20, Disks: disks}); err != nil {
			t.Fatalf("broadcast-disk disks=%d: %v", disks, err)
		}
	}
}

func TestEDFFactoryThreadsTTL(t *testing.T) {
	pol, err := NewPull("edf", Params{TTL: 42})
	if err != nil {
		t.Fatal(err)
	}
	edf, ok := pol.(sched.EDF)
	if !ok || edf.TTL != 42 {
		t.Fatalf("edf policy = %#v, want EDF{TTL:42}", pol)
	}
	if !edf.TimeDependent() {
		t.Fatal("edf with TTL should be time-dependent")
	}
}

func TestNamesSortedAndStable(t *testing.T) {
	pullNames := PullNames()
	for i := 1; i < len(pullNames); i++ {
		if pullNames[i-1] >= pullNames[i] {
			t.Fatalf("PullNames not strictly sorted: %v", pullNames)
		}
	}
	for _, want := range []string{"gamma", "stretch", "priority", "fcfs", "edf", "mrf", "rxw", "classic-stretch"} {
		found := false
		for _, n := range pullNames {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("built-in pull policy %q missing from PullNames %v", want, pullNames)
		}
	}
	pushNames := PushNames()
	for _, want := range []string{"roundrobin", "broadcast-disk", "square-root", "none"} {
		found := false
		for _, n := range pushNames {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("built-in push scheduler %q missing from PushNames %v", want, pushNames)
		}
	}
}

func TestConcurrentRegistrationAndLookup(t *testing.T) {
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			name := fmt.Sprintf("test-conc-%d", i)
			_ = RegisterPull(name, func(Params) (sched.PullPolicy, error) {
				return sched.FCFS{}, nil
			})
			for j := 0; j < 100; j++ {
				if _, err := NewPull("gamma", Params{Alpha: 0.5}); err != nil {
					t.Errorf("lookup during registration: %v", err)
					return
				}
				_ = PullNames()
			}
		}(i)
	}
	for i := 0; i < 8; i++ {
		<-done
	}
}
