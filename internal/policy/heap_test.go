package policy

import (
	"math"
	"strings"
	"testing"

	"hybridqos/internal/clients"
	"hybridqos/internal/pullqueue"
	"hybridqos/internal/rng"
	"hybridqos/internal/sched"
)

// TestHeapPoliciesMatchLinear: every registered policy that the selector
// backs with a heap extracts exactly the item sequence a linear re-scan of
// the same policy does, under a random mix of Add, ExtractBest and Remove.
// The mix re-adds requests older than an entry's FirstArrival (the retry
// path, where an FCFS key rises on a live entry). The same walk checks the
// contract the heap's cached keys rely on: the score ignores now, and no Add
// lowers it.
func TestHeapPoliciesMatchLinear(t *testing.T) {
	tested := map[string]bool{}
	for _, name := range PullNames() {
		// Names this package's registry tests register are test doubles,
		// not shipped policies.
		if strings.HasPrefix(name, "test-") {
			continue
		}
		params := []Params{{Alpha: 0.5}}
		if name == "gamma" {
			params = []Params{{Alpha: 0}, {Alpha: 0.5}, {Alpha: 1}}
		}
		for _, p := range params {
			pol, err := NewPull(name, p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if pol.TimeDependent() {
				continue
			}
			tested[name] = true
			for seed := uint64(1); seed <= 20; seed++ {
				checkHeapMatchesLinear(t, pol, seed)
			}
		}
	}
	for _, want := range []string{"gamma", "stretch", "priority", "fcfs", "edf", "mrf"} {
		if !tested[want] {
			t.Errorf("heap-backed policy %q not exercised", want)
		}
	}
}

func checkHeapMatchesLinear(t *testing.T, pol sched.PullPolicy, seed uint64) {
	t.Helper()
	sel, err := sched.NewSelector(pol)
	if err != nil {
		t.Fatal(err)
	}
	heap, ok := sel.(*pullqueue.Heap)
	if !ok {
		t.Fatalf("%s: selector is %T, want *pullqueue.Heap", pol.Name(), sel)
	}
	lin, err := pullqueue.NewLinearFunc(pol.Score)
	if err != nil {
		t.Fatal(err)
	}
	const items = 30
	var lengths [items + 1]float64
	r := rng.New(seed)
	for i := 1; i <= items; i++ {
		lengths[i] = float64(r.Intn(5) + 1)
	}
	now := 0.0
	step := 0
	extract := func(op string, he, le *pullqueue.Entry) {
		t.Helper()
		if (he == nil) != (le == nil) ||
			he != nil && (he.Item != le.Item || he.NumRequests() != le.NumRequests() || he.SumPriority != le.SumPriority) {
			t.Fatalf("%s seed %d step %d: %s heap %+v, linear %+v", pol.Name(), seed, step, op, he, le)
		}
		heap.Recycle(he)
		lin.Recycle(le)
	}
	for ; step < 600; step++ {
		switch op := r.Intn(20); {
		case op < 5:
			extract("ExtractBest", heap.ExtractBest(now), lin.ExtractBest(now))
		case op < 7:
			item := r.Intn(items) + 1
			extract("Remove", heap.Remove(item), lin.Remove(item))
		default:
			item := r.Intn(items) + 1
			now += r.Float64()
			arrival := now
			if r.Intn(4) == 0 {
				arrival -= 20 * r.Float64() // a retry: older than most pending arrivals
			}
			rq := pullqueue.Request{
				Item:     item,
				Class:    clients.Class(r.Intn(3)),
				Priority: float64(r.Intn(3) + 1),
				Arrival:  arrival,
			}
			before := math.Inf(-1)
			if e := lin.Entry(item); e != nil {
				before = pol.Score(e, 0)
			}
			heap.Add(rq, lengths[item])
			lin.Add(rq, lengths[item])
			e := lin.Entry(item)
			at0, later := pol.Score(e, 0), pol.Score(e, 1e6)
			if math.Float64bits(at0) != math.Float64bits(later) {
				t.Fatalf("%s seed %d step %d: score %g at now=0 but %g at now=1e6", pol.Name(), seed, step, at0, later)
			}
			if at0 < before {
				t.Fatalf("%s seed %d step %d: Add lowered item %d's score from %g to %g", pol.Name(), seed, step, item, before, at0)
			}
		}
	}
	for heap.Items() > 0 || lin.Items() > 0 {
		extract("drain", heap.ExtractBest(now), lin.ExtractBest(now))
		step++
	}
}
