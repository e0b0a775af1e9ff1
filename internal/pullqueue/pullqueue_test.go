package pullqueue

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"hybridqos/internal/clients"
	"hybridqos/internal/rng"
)

func req(item int, class clients.Class, prio, arrival float64) Request {
	return Request{Item: item, Class: class, Priority: prio, Arrival: arrival}
}

func mustHeap(t testing.TB, alpha float64) *Heap {
	t.Helper()
	score, err := GammaScore(alpha)
	if err != nil {
		t.Fatalf("GammaScore(%g): %v", alpha, err)
	}
	h, err := NewHeapFunc(score)
	if err != nil {
		t.Fatalf("NewHeapFunc: %v", err)
	}
	return h
}

func mustLinear(t testing.TB, alpha float64) *Linear {
	t.Helper()
	l, err := NewLinear(alpha)
	if err != nil {
		t.Fatalf("NewLinear(%g): %v", alpha, err)
	}
	return l
}

func TestEntryDerivedQuantities(t *testing.T) {
	h := mustHeap(t, 0.5)
	h.Add(req(7, 1, 2, 10), 4)
	h.Add(req(7, 0, 3, 12), 4)
	h.Add(req(7, 2, 1, 8), 4)
	e := h.Entry(7)
	if e == nil {
		t.Fatal("entry missing")
	}
	if e.NumRequests() != 3 {
		t.Fatalf("R = %d", e.NumRequests())
	}
	if got := e.Stretch(); math.Abs(got-3.0/16) > 1e-12 {
		t.Fatalf("Stretch = %g, want 3/16", got)
	}
	if e.SumPriority != 6 {
		t.Fatalf("Q = %g", e.SumPriority)
	}
	if e.FirstArrival != 8 {
		t.Fatalf("FirstArrival = %g", e.FirstArrival)
	}
	if e.HighestClass() != 0 {
		t.Fatalf("HighestClass = %v", e.HighestClass())
	}
	// γ = α·S + (1-α)·Q = 0.5·(3/16) + 0.5·6
	want := 0.5*3.0/16 + 0.5*6
	if got := e.Gamma(0.5); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Gamma = %g, want %g", got, want)
	}
}

func TestHighestClassEmptyPanics(t *testing.T) {
	e := &Entry{Item: 1, Length: 1}
	defer func() {
		if recover() == nil {
			t.Fatal("HighestClass on empty entry did not panic")
		}
	}()
	e.HighestClass()
}

func TestAlphaExtremes(t *testing.T) {
	// α=1: pure stretch — many small requests beat one high-priority one.
	h := mustHeap(t, 1)
	h.Add(req(1, 0, 100, 0), 1) // S=1, Q=100
	for i := 0; i < 5; i++ {
		h.Add(req(2, 2, 1, 0), 1) // S=5, Q=5
	}
	if got := h.ExtractMax(0).Item; got != 2 {
		t.Fatalf("alpha=1 extracted item %d, want stretch-max 2", got)
	}

	// α=0: pure priority — the high-priority item wins.
	h0 := mustHeap(t, 0)
	h0.Add(req(1, 0, 100, 0), 1)
	for i := 0; i < 5; i++ {
		h0.Add(req(2, 2, 1, 0), 1)
	}
	if got := h0.ExtractMax(0).Item; got != 1 {
		t.Fatalf("alpha=0 extracted item %d, want priority-max 1", got)
	}
}

func TestLongItemsPenalizedByStretch(t *testing.T) {
	h := mustHeap(t, 1)
	h.Add(req(1, 0, 1, 0), 5) // S = 1/25
	h.Add(req(2, 0, 1, 0), 1) // S = 1
	if got := h.ExtractMax(0).Item; got != 2 {
		t.Fatalf("stretch should prefer the short item; got %d", got)
	}
}

func TestTieBreakLowestRank(t *testing.T) {
	for _, mk := range []func() Queue{
		func() Queue { return mustHeap(t, 0.5) },
		func() Queue { return mustLinear(t, 0.5) },
	} {
		q := mk()
		q.Add(req(9, 0, 2, 0), 2)
		q.Add(req(3, 0, 2, 0), 2)
		q.Add(req(6, 0, 2, 0), 2)
		if got := q.ExtractMax(0).Item; got != 3 {
			t.Fatalf("tie-break extracted %d, want 3", got)
		}
	}
}

func TestExtractEmptyReturnsNil(t *testing.T) {
	if mustHeap(t, 0.5).ExtractMax(0) != nil || mustLinear(t, 0.5).ExtractMax(0) != nil {
		t.Fatal("ExtractMax on empty queue != nil")
	}
	if mustHeap(t, 0.5).Peek(0) != nil || mustLinear(t, 0.5).Peek(0) != nil {
		t.Fatal("Peek on empty queue != nil")
	}
}

func TestCountsTrackAddsAndExtracts(t *testing.T) {
	h := mustHeap(t, 0.5)
	h.Add(req(1, 0, 3, 0), 2)
	h.Add(req(1, 1, 2, 1), 2)
	h.Add(req(2, 2, 1, 2), 3)
	if h.Items() != 2 || h.Requests() != 3 {
		t.Fatalf("Items=%d Requests=%d", h.Items(), h.Requests())
	}
	e := h.ExtractMax(0)
	if h.Items() != 1 || h.Requests() != 3-len(e.Requests) {
		t.Fatalf("after extract: Items=%d Requests=%d", h.Items(), h.Requests())
	}
	h.ExtractMax(0)
	if h.Items() != 0 || h.Requests() != 0 {
		t.Fatalf("after drain: Items=%d Requests=%d", h.Items(), h.Requests())
	}
}

func TestReAddAfterExtract(t *testing.T) {
	h := mustHeap(t, 0.5)
	h.Add(req(4, 0, 1, 0), 2)
	h.ExtractMax(0)
	h.Add(req(4, 1, 2, 5), 2)
	e := h.Entry(4)
	if e == nil || e.NumRequests() != 1 || e.SumPriority != 2 || e.FirstArrival != 5 {
		t.Fatalf("re-added entry corrupted: %+v", e)
	}
}

func TestRemove(t *testing.T) {
	h := mustHeap(t, 0.5)
	for i := 1; i <= 10; i++ {
		h.Add(req(i, 0, float64(i), 0), 1)
	}
	if e := h.Remove(5); e == nil || e.Item != 5 {
		t.Fatal("Remove(5) failed")
	}
	if h.Remove(5) != nil {
		t.Fatal("double Remove returned entry")
	}
	if h.Remove(99) != nil {
		t.Fatal("Remove of absent item returned entry")
	}
	if h.Items() != 9 || h.Requests() != 9 {
		t.Fatalf("after remove: Items=%d Requests=%d", h.Items(), h.Requests())
	}
	// Remaining extraction order must still be by descending priority
	// (alpha=0.5, all stretch equal contributions differ by Q here).
	prev := math.Inf(1)
	for h.Items() > 0 {
		g := h.ExtractMax(0).Gamma(0.5)
		if g > prev+1e-12 {
			t.Fatalf("extraction order broken after Remove: %g after %g", g, prev)
		}
		prev = g
	}
}

func TestLinearRemove(t *testing.T) {
	l := mustLinear(t, 0.5)
	for i := 1; i <= 10; i++ {
		l.Add(req(i, 0, float64(i), 0), 1)
	}
	if e := l.Remove(5); e == nil || e.Item != 5 {
		t.Fatal("Remove(5) failed")
	}
	if l.Remove(5) != nil {
		t.Fatal("double Remove returned entry")
	}
	if l.Remove(99) != nil {
		t.Fatal("Remove of absent item returned entry")
	}
	if l.Items() != 9 || l.Requests() != 9 {
		t.Fatalf("after remove: Items=%d Requests=%d", l.Items(), l.Requests())
	}
	for want := 10; l.Items() > 0; want-- {
		if want == 5 {
			want--
		}
		if got := l.ExtractMax(0).Item; got != want {
			t.Fatalf("extraction after Remove: got item %d, want %d", got, want)
		}
	}
}

func TestValidationErrors(t *testing.T) {
	for _, alpha := range []float64{-0.1, 1.1, math.NaN()} {
		var ae *AlphaError
		if _, err := GammaScore(alpha); err == nil || !errors.As(err, &ae) {
			t.Errorf("GammaScore(%g) error = %v, want AlphaError", alpha, err)
		}
		if _, err := NewLinear(alpha); err == nil {
			t.Errorf("NewLinear(%g) did not error", alpha)
		}
	}
	if _, err := NewHeapFunc(nil); err == nil {
		t.Error("NewHeapFunc(nil) did not error")
	}
	if _, err := NewLinearFunc(nil); err == nil {
		t.Error("NewLinearFunc(nil) did not error")
	}
}

// The linear queue re-evaluates scores at extraction time, so a
// time-dependent (ageing) score selects by current wait, not enqueue state.
func TestLinearTimeDependentScore(t *testing.T) {
	// RxW-style score: requests × wait of the oldest request.
	rxw := func(e *Entry, now float64) float64 {
		return float64(e.NumRequests()) * (now - e.FirstArrival)
	}
	l, err := NewLinearFunc(rxw)
	if err != nil {
		t.Fatal(err)
	}
	l.Add(req(1, 0, 1, 0), 1) // 1 request, waiting since t=0
	l.Add(req(2, 0, 1, 8), 1) // 2 requests, waiting since t=8
	l.Add(req(2, 0, 1, 9), 1)
	// At now=10: item 1 scores 1·10=10, item 2 scores 2·2=4.
	if got := l.Peek(10).Item; got != 1 {
		t.Fatalf("at now=10 peek = %d, want 1", got)
	}
	// At now=30: item 1 scores 30, item 2 scores 2·22=44.
	if got := l.ExtractMax(30).Item; got != 2 {
		t.Fatalf("at now=30 extract = %d, want 2", got)
	}
}

// Regression (satellite: de-duplicated scoring): GammaScore must agree
// exactly with Entry.Gamma for arbitrary entries and α.
func TestGammaScoreMatchesEntryGamma(t *testing.T) {
	r := rng.New(11)
	for i := 0; i < 500; i++ {
		alpha := r.Float64()
		score, err := GammaScore(alpha)
		if err != nil {
			t.Fatal(err)
		}
		e := &Entry{Item: r.Intn(100) + 1, Length: float64(r.Intn(5) + 1)}
		n := r.Intn(6) + 1
		for j := 0; j < n; j++ {
			p := float64(r.Intn(3) + 1)
			e.Requests = append(e.Requests, req(e.Item, 0, p, float64(j)))
			e.SumPriority += p
		}
		if got, want := score(e, 0), e.Gamma(alpha); got != want {
			t.Fatalf("score=%g gamma=%g (alpha=%g)", got, want, alpha)
		}
	}
}

// Property: the heap and the linear reference extract identical item
// sequences for arbitrary workloads and α.
func TestPropertyHeapMatchesLinear(t *testing.T) {
	r := rng.New(99)
	check := func(alphaRaw uint8, ops []uint16) bool {
		alpha := float64(alphaRaw%101) / 100
		h := mustHeap(t, alpha)
		l := mustLinear(t, alpha)
		tNow := 0.0
		for _, op := range ops {
			if op%4 == 3 && h.Items() > 0 {
				he, le := h.ExtractMax(tNow), l.ExtractMax(tNow)
				if he.Item != le.Item || he.NumRequests() != le.NumRequests() {
					return false
				}
				continue
			}
			item := int(op%20) + 1
			length := float64(op%5) + 1
			prio := float64(op%3) + 1
			class := clients.Class(op % 3)
			tNow += r.Float64()
			rq := req(item, class, prio, tNow)
			// Length is fixed at first enqueue in both implementations;
			// supply the same candidate to each.
			h.Add(rq, length)
			l.Add(rq, length)
			if h.Items() != l.Items() || h.Requests() != l.Requests() {
				return false
			}
		}
		// Drain and compare the full extraction order.
		for h.Items() > 0 || l.Items() > 0 {
			he, le := h.ExtractMax(tNow), l.ExtractMax(tNow)
			if (he == nil) != (le == nil) {
				return false
			}
			if he != nil && (he.Item != le.Item || he.SumPriority != le.SumPriority) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: extraction from a static queue is in non-increasing γ order.
func TestPropertyExtractionMonotone(t *testing.T) {
	check := func(alphaRaw uint8, ops []uint16) bool {
		alpha := float64(alphaRaw%101) / 100
		h := mustHeap(t, alpha)
		for i, op := range ops {
			if i > 300 {
				break
			}
			h.Add(req(int(op%50)+1, clients.Class(op%3), float64(op%4)+1, float64(i)), float64(op%5)+1)
		}
		prev := math.Inf(1)
		for h.Items() > 0 {
			g := h.ExtractMax(0).Gamma(alpha)
			if g > prev+1e-9 {
				return false
			}
			prev = g
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func buildWorkload(n int) []Request {
	r := rng.New(7)
	reqs := make([]Request, n)
	for i := range reqs {
		// Spread items so queue size actually scales with n (distinct item
		// count ≈ min(n, catalog)); catalog grows with the workload.
		reqs[i] = req(r.Intn(max(n/2, 10))+1, clients.Class(r.Intn(3)), float64(r.Intn(3)+1), float64(i))
	}
	return reqs
}

var benchSizes = []int{100, 1000, 10000, 100000}

func BenchmarkHeapAddExtract(b *testing.B) {
	for _, n := range benchSizes {
		reqs := buildWorkload(n)
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h := mustHeap(b, 0.5)
				for _, rq := range reqs {
					h.Add(rq, 2)
				}
				for h.Items() > 0 {
					h.ExtractMax(0)
				}
			}
		})
	}
}

func BenchmarkLinearAddExtract(b *testing.B) {
	for _, n := range benchSizes {
		if n > 10000 {
			// O(n²) scans: 10⁵ items would take minutes per iteration.
			continue
		}
		reqs := buildWorkload(n)
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				l := mustLinear(b, 0.5)
				for _, rq := range reqs {
					l.Add(rq, 2)
				}
				for l.Items() > 0 {
					l.ExtractMax(0)
				}
			}
		})
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1000000:
		return "n=1e6"
	case n >= 100000:
		return "n=1e5"
	case n >= 10000:
		return "n=1e4"
	case n >= 1000:
		return "n=1e3"
	default:
		return "n=1e2"
	}
}
