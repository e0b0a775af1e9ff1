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
// the same policy does, under a random mix of Add, ExtractBest, Peek and
// Remove. The mix re-adds requests older than an entry's FirstArrival (the
// retry path, where an FCFS key rises on a live entry). For the
// time-independent policies the same walk checks the contract the heap's
// cached keys rely on: the score ignores now, and no Add lowers it.
//
// edf with a TTL is time-dependent, and the selector backs it with a
// deadline heap. Its walk advances now without ever going back, and also
// lands exactly on, and just past, a pending entry's deadline; it adds
// FirstArrivals equal to another entry's, or one ulp above it so that the
// two deadlines round to the same float; and midway it releases both
// queues and continues on queues built from the released entries.
func TestHeapPoliciesMatchLinear(t *testing.T) {
	tested := map[string]bool{}
	for _, name := range PullNames() {
		// Names this package's registry tests register are test doubles,
		// not shipped policies.
		if strings.HasPrefix(name, "test-") {
			continue
		}
		params := []Params{{Alpha: 0.5}}
		switch name {
		case "gamma":
			params = []Params{{Alpha: 0}, {Alpha: 0.5}, {Alpha: 1}}
		case "edf":
			params = []Params{{}, {TTL: 0.5}, {TTL: 5}, {TTL: 40}}
		}
		for _, p := range params {
			pol, err := NewPull(name, p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			deadlines := p.TTL > 0
			if pol.TimeDependent() && !deadlines {
				continue
			}
			if deadlines {
				tested[name+"/ttl"] = true
			} else {
				tested[name] = true
			}
			for seed := uint64(1); seed <= 20; seed++ {
				checkHeapMatchesLinear(t, pol, p.TTL, seed)
			}
		}
	}
	for _, want := range []string{"gamma", "stretch", "priority", "fcfs", "edf", "edf/ttl", "mrf"} {
		if !tested[want] {
			t.Errorf("heap-backed policy %q not exercised", want)
		}
	}
}

// checkHeapMatchesLinear drives the selector for pol and a Linear queue of
// the same score through one random walk and fails on the first choice
// they disagree on. ttl > 0 selects the deadline walk.
func checkHeapMatchesLinear(t *testing.T, pol sched.PullPolicy, ttl float64, seed uint64) {
	t.Helper()
	newQueues := func() (*pullqueue.Heap, *pullqueue.Linear) {
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
		return heap, lin
	}
	heap, lin := newQueues()
	const items = 30
	var lengths [items + 1]float64
	r := rng.New(seed)
	for i := 1; i <= items; i++ {
		lengths[i] = float64(r.Intn(5) + 1)
	}
	deadlines := ttl > 0
	now := 0.0
	step := 0
	same := func(op string, he, le *pullqueue.Entry) {
		t.Helper()
		if (he == nil) != (le == nil) ||
			he != nil && (he.Item != le.Item || he.NumRequests() != le.NumRequests() || he.SumPriority != le.SumPriority) {
			t.Fatalf("%s seed %d step %d now %v: %s heap %+v, linear %+v", pol.Name(), seed, step, now, op, he, le)
		}
		if he != nil {
			hs, ls := heap.Score(he, now), pol.Score(le, now)
			if math.Float64bits(hs) != math.Float64bits(ls) {
				t.Fatalf("%s seed %d step %d: %s scores heap %v, linear %v", pol.Name(), seed, step, op, hs, ls)
			}
		}
	}
	extract := func(op string, he, le *pullqueue.Entry) {
		t.Helper()
		same(op, he, le)
		heap.Recycle(he)
		lin.Recycle(le)
	}
	// pendingArrival returns a pending entry's FirstArrival, if any is
	// queued: ties and near-ties for the deadline walk.
	pendingArrival := func() (float64, bool) {
		start := r.Intn(items)
		for k := 0; k < items; k++ {
			if e := lin.Entry((start+k)%items + 1); e != nil {
				return e.FirstArrival, true
			}
		}
		return 0, false
	}
	// nextDeadline returns the earliest pending deadline not before now.
	nextDeadline := func() (float64, bool) {
		best, ok := math.Inf(1), false
		for i := 1; i <= items; i++ {
			if e := lin.Entry(i); e != nil {
				if d := e.FirstArrival + ttl; d >= now && d < best {
					best, ok = d, true
				}
			}
		}
		return best, ok
	}
	for ; step < 600; step++ {
		if deadlines && step == 300 {
			// Release both queues mid-walk and carry on with queues that
			// start from the released entries, demoted ones among them.
			heap.Release()
			lin.Release()
			heap, lin = newQueues()
		}
		switch op := r.Intn(20); {
		case op < 5:
			if deadlines {
				switch r.Intn(3) {
				case 0:
					if d, ok := nextDeadline(); ok {
						now = d // exactly at a deadline: still live
					}
				case 1:
					if d, ok := nextDeadline(); ok {
						now = math.Nextafter(d, math.Inf(1)) // just past it
					}
				}
			}
			extract("ExtractBest", heap.ExtractBest(now), lin.ExtractBest(now))
		case op < 6:
			if deadlines {
				if d, ok := nextDeadline(); ok && r.Intn(2) == 0 {
					now = d
				}
			}
			same("Peek", heap.Peek(now), lin.Peek(now))
		case op < 8:
			item := r.Intn(items) + 1
			extract("Remove", heap.Remove(item), lin.Remove(item))
		default:
			item := r.Intn(items) + 1
			now += r.Float64()
			arrival := now
			switch k := r.Intn(8); {
			case k < 2:
				arrival -= 20 * r.Float64() // a retry: older than most pending arrivals
			case k < 4 && deadlines:
				if a, ok := pendingArrival(); ok {
					arrival = a // another entry's FirstArrival, or one ulp above it
					if k == 3 {
						arrival = math.Nextafter(a, math.Inf(1))
					}
				}
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
			if deadlines {
				continue
			}
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
