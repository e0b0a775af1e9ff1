package sched

import (
	"math"
	"testing"
	"testing/quick"

	"hybridqos/internal/clients"
	"hybridqos/internal/pullqueue"
	"hybridqos/internal/rng"
)

func rq(item int, class clients.Class, prio, arrival float64) pullqueue.Request {
	return pullqueue.Request{Item: item, Class: class, Priority: prio, Arrival: arrival}
}

func TestNewImportanceFactorValidation(t *testing.T) {
	for _, bad := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := NewImportanceFactor(bad); err == nil {
			t.Errorf("alpha %g accepted", bad)
		}
	}
	p, err := NewImportanceFactor(0.25)
	if err != nil || p.Alpha != 0.25 {
		t.Fatalf("valid alpha rejected: %v", err)
	}
}

func TestPolicyNamesAndTimeDependence(t *testing.T) {
	cases := []struct {
		p  PullPolicy
		td bool
	}{
		{ImportanceFactor{Alpha: 0.5}, false},
		{StretchOptimal{}, false},
		{PriorityOnly{}, false},
		{FCFS{}, false},
		{MRF{}, false},
		{RxW{}, true},
		{ClassicStretch{}, true},
		{EDF{}, false},
		{EDF{TTL: 50}, true},
	}
	seen := map[string]bool{}
	for _, c := range cases {
		name := c.p.Name()
		if name == "" || seen[name] {
			t.Errorf("policy name %q empty or duplicated", name)
		}
		seen[name] = true
		if c.p.TimeDependent() != c.td {
			t.Errorf("%s TimeDependent = %v, want %v", name, c.p.TimeDependent(), c.td)
		}
	}
}

func TestPolicyScores(t *testing.T) {
	e := &pullqueue.Entry{Item: 3, Length: 2, FirstArrival: 10}
	e.Requests = []pullqueue.Request{rq(3, 0, 3, 10), rq(3, 2, 1, 12)}
	e.SumPriority = 4

	if got := (ImportanceFactor{Alpha: 0.5}).Score(e, 20); math.Abs(got-(0.5*2.0/4+0.5*4)) > 1e-12 {
		t.Fatalf("importance-factor score %g", got)
	}
	if got := (StretchOptimal{}).Score(e, 20); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("stretch score %g, want R/L²=0.5", got)
	}
	if got := (PriorityOnly{}).Score(e, 20); got != 4 {
		t.Fatalf("priority score %g", got)
	}
	if got := (FCFS{}).Score(e, 20); got != -10 {
		t.Fatalf("fcfs score %g", got)
	}
	if got := (MRF{}).Score(e, 20); got != 2 {
		t.Fatalf("mrf score %g", got)
	}
	if got := (RxW{}).Score(e, 20); got != 2*10 {
		t.Fatalf("rxw score %g", got)
	}
	if got := (ClassicStretch{}).Score(e, 20); math.Abs(got-2*10/2.0) > 1e-12 {
		t.Fatalf("classic stretch score %g", got)
	}
}

func mustSelector(t testing.TB, p PullPolicy) pullqueue.Queue {
	t.Helper()
	s, err := NewSelector(p)
	if err != nil {
		t.Fatalf("NewSelector(%v): %v", p, err)
	}
	return s
}

func TestNewSelectorValidation(t *testing.T) {
	if _, err := NewSelector(nil); err == nil {
		t.Fatal("nil policy accepted")
	}
	if _, err := NewSelector(ImportanceFactor{Alpha: 0.5}); err != nil {
		t.Fatalf("valid policy rejected: %v", err)
	}
}

// forwarded forwards only the PullPolicy methods, as a timing wrapper does.
type forwarded struct{ PullPolicy }

// TestNewSelectorQueueKind: time-independent policies and EDF with a TTL
// get a heap; the other time-dependent policies, and EDF behind a wrapper
// that hides its concrete type, get the re-scanning Linear queue.
func TestNewSelectorQueueKind(t *testing.T) {
	for _, c := range []struct {
		p    PullPolicy
		heap bool
	}{
		{ImportanceFactor{Alpha: 0.5}, true},
		{EDF{}, true},
		{EDF{TTL: 50}, true},
		{forwarded{EDF{TTL: 50}}, false},
		{RxW{}, false},
		{ClassicStretch{}, false},
	} {
		_, isHeap := mustSelector(t, c.p).(*pullqueue.Heap)
		if isHeap != c.heap {
			t.Errorf("%s (%T): heap selector %v, want %v", c.p.Name(), c.p, isHeap, c.heap)
		}
	}
}

func TestSelectorFCFSOrder(t *testing.T) {
	s := mustSelector(t, FCFS{})
	s.Add(rq(5, 0, 1, 30), 1)
	s.Add(rq(2, 0, 1, 10), 1)
	s.Add(rq(8, 0, 1, 20), 1)
	want := []int{2, 8, 5}
	for _, w := range want {
		if got := s.ExtractBest(100).Item; got != w {
			t.Fatalf("FCFS order got %d want %d", got, w)
		}
	}
	if s.ExtractBest(100) != nil {
		t.Fatal("empty selector returned entry")
	}
}

func TestSelectorEDFNoTTLMatchesFCFS(t *testing.T) {
	// With TTL <= 0 the EDF score is exactly the FCFS key, so the two
	// selectors must extract identical sequences.
	edf := mustSelector(t, EDF{})
	fcfs := mustSelector(t, FCFS{})
	r := rng.New(5)
	now := 0.0
	for i := 0; i < 200; i++ {
		now += r.Float64()
		q := rq(r.Intn(30)+1, clients.Class(r.Intn(3)), float64(r.Intn(3)+1), now)
		l := float64(r.Intn(5) + 1)
		edf.Add(q, l)
		fcfs.Add(q, l)
	}
	for fcfs.Items() > 0 {
		fe, ee := fcfs.ExtractBest(now), edf.ExtractBest(now)
		if ee == nil || fe.Item != ee.Item {
			t.Fatalf("EDF(no TTL) diverged from FCFS")
		}
	}
	if edf.Items() != 0 {
		t.Fatal("EDF selector not drained")
	}
}

func TestSelectorEDFDeadlineOrder(t *testing.T) {
	s := mustSelector(t, EDF{TTL: 10})
	s.Add(rq(5, 0, 1, 8), 1)  // deadline 18
	s.Add(rq(2, 0, 1, 4), 1)  // deadline 14
	s.Add(rq(8, 0, 1, 12), 1) // deadline 22
	// At t=13 no deadline has passed: earliest deadline first.
	if got := s.ExtractBest(13).Item; got != 2 {
		t.Fatalf("EDF picked %d, want earliest-deadline 2", got)
	}
	// At t=20 item 5's deadline (18) has passed: it scores -Inf and the
	// live deadline (item 8, 22) is served first.
	if got := s.ExtractBest(20).Item; got != 8 {
		t.Fatalf("EDF at t=20 picked %d, want live-deadline 8", got)
	}
	if got := s.ExtractBest(20).Item; got != 5 {
		t.Fatalf("EDF picked %d, want expired 5 last", got)
	}
}

func TestSelectorRxWAging(t *testing.T) {
	s := mustSelector(t, RxW{})
	// Item 1: 3 requests arriving at t=10; item 2: 1 request at t=0.
	for i := 0; i < 3; i++ {
		s.Add(rq(1, 0, 1, 10), 1)
	}
	s.Add(rq(2, 0, 1, 0), 1)
	// At t=12: item1 RxW = 3·2=6 > item2 1·12=12? No: 6 < 12 → item 2 first.
	if got := s.ExtractBest(12).Item; got != 2 {
		t.Fatalf("RxW at t=12 picked %d, want 2", got)
	}
	s.Add(rq(2, 0, 1, 13), 1)
	// At t=14: item1 = 3·4=12 > item2 = 1·1=1 → item 1.
	if got := s.ExtractBest(14).Item; got != 1 {
		t.Fatalf("RxW at t=14 picked %d, want 1", got)
	}
}

func TestSelectorMRF(t *testing.T) {
	s := mustSelector(t, MRF{})
	s.Add(rq(1, 0, 1, 0), 1)
	s.Add(rq(1, 0, 1, 1), 1)
	s.Add(rq(2, 0, 5, 2), 1)
	if got := s.ExtractBest(5).Item; got != 1 {
		t.Fatalf("MRF picked %d, want most-requested 1", got)
	}
}

func TestSelectorTieBreakLowestRank(t *testing.T) {
	s := mustSelector(t, MRF{})
	s.Add(rq(7, 0, 1, 0), 1)
	s.Add(rq(4, 0, 1, 0), 1)
	if got := s.ExtractBest(1).Item; got != 4 {
		t.Fatalf("tie-break picked %d, want 4", got)
	}
}

func TestSelectorRemove(t *testing.T) {
	s := mustSelector(t, RxW{})
	s.Add(rq(1, 0, 1, 0), 1)
	s.Add(rq(2, 0, 1, 0), 1)
	s.Add(rq(2, 1, 2, 1), 1)
	if e := s.Remove(2); e == nil || e.NumRequests() != 2 {
		t.Fatal("Remove(2) failed")
	}
	if s.Remove(2) != nil {
		t.Fatal("double remove returned entry")
	}
	if s.Items() != 1 || s.Requests() != 1 {
		t.Fatalf("Items=%d Requests=%d", s.Items(), s.Requests())
	}
}

func TestHeapSelectorMatchesScanForImportanceFactor(t *testing.T) {
	// The heap fast path must agree with a scan selector evaluating the
	// same policy.
	r := rng.New(17)
	check := func(alphaRaw uint8, ops []uint16) bool {
		alpha := float64(alphaRaw%101) / 100
		pol := ImportanceFactor{Alpha: alpha}
		fast := mustSelector(t, pol)
		slow, err := pullqueue.NewLinearFunc(pol.Score)
		if err != nil {
			t.Fatal(err)
		}
		now := 0.0
		for _, op := range ops {
			now += r.Float64()
			if op%5 == 4 && fast.Items() > 0 {
				fe, se := fast.ExtractBest(now), slow.ExtractBest(now)
				if fe.Item != se.Item {
					return false
				}
				continue
			}
			q := rq(int(op%30)+1, clients.Class(op%3), float64(op%3)+1, now)
			l := float64(op%5) + 1
			fast.Add(q, l)
			slow.Add(q, l)
		}
		for fast.Items() > 0 {
			fe, se := fast.ExtractBest(now), slow.ExtractBest(now)
			if fe == nil || se == nil || fe.Item != se.Item {
				return false
			}
		}
		return slow.Items() == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScanSelectorExtract(b *testing.B) {
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := mustSelector(b, RxW{})
		for j := 0; j < 256; j++ {
			s.Add(rq(r.Intn(64)+1, clients.Class(r.Intn(3)), float64(r.Intn(3)+1), float64(j)), float64(r.Intn(5)+1))
		}
		for s.Items() > 0 {
			s.ExtractBest(300)
		}
	}
}

func TestHeapSelectorRemoveAndRequests(t *testing.T) {
	s := mustSelector(t, ImportanceFactor{Alpha: 0.5})
	s.Add(rq(3, 0, 2, 0), 2)
	s.Add(rq(3, 1, 1, 1), 2)
	s.Add(rq(7, 2, 1, 2), 1)
	if s.Requests() != 3 || s.Items() != 2 {
		t.Fatalf("Requests=%d Items=%d", s.Requests(), s.Items())
	}
	e := s.Remove(3)
	if e == nil || e.NumRequests() != 2 {
		t.Fatal("heap selector Remove failed")
	}
	if s.Remove(3) != nil {
		t.Fatal("double remove returned entry")
	}
	if s.Requests() != 1 {
		t.Fatalf("Requests after remove = %d", s.Requests())
	}
}

// BenchmarkEDFExtract times one EDF pull decision with a TTL at the lossy
// cell's queue size: about 55 distinct items queued, each extraction
// followed by the arrivals that refill the queue, at an advancing now. A
// quarter of the arrivals are retries whose older FirstArrival may already
// be past its deadline. impl=heap is the deadline heap NewSelector builds;
// impl=linear re-scores every entry at each extraction.
func BenchmarkEDFExtract(b *testing.B) {
	const queued = 55
	pol := EDF{TTL: 400}
	for _, impl := range []string{"heap", "linear"} {
		b.Run("impl="+impl, func(b *testing.B) {
			var q pullqueue.Queue = mustSelector(b, pol)
			if impl == "linear" {
				lin, err := pullqueue.NewLinearFunc(pol.Score)
				if err != nil {
					b.Fatal(err)
				}
				q = lin
			}
			r := rng.New(1)
			now := 0.0
			refill := func() {
				for q.Items() < queued {
					now += r.Float64()
					arrival := now
					if r.Intn(4) == 0 {
						arrival -= 600 * r.Float64()
					}
					q.Add(rq(r.Intn(1000)+1, clients.Class(r.Intn(3)), float64(r.Intn(3)+1), arrival), float64(r.Intn(5)+1))
				}
			}
			refill()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Recycle(q.ExtractBest(now))
				refill()
			}
		})
	}
}
