package event

import (
	"math"
	"testing"

	"hybridqos/internal/rng"
)

// TestDifferentialAgainstReferenceHeap drives the arena heap and the
// retired container/heap implementation through the same randomized
// schedule/cancel/reschedule/advance workload and requires bit-identical
// pop order. It runs twice: through Simulator (causal: every push at or
// after now), and through a bare Queue pushed the way the wall clock
// pushes it — times before the last pop and −Inf among ordinary timers.
// Bursts of up to a few hundred pending events, exact ties, coarse-grid
// clustering and far-future outliers exercise every sift path; cancels
// are followed by a replacement so the survivor count under churn is
// checked exactly, and the Simulator's fire times must come out sorted.
// The Simulator mode also runs a self-rebooking chain that tries
// TryAdvance before At, the way the arrival chain does, against a
// reference chain booked only through At: its successors tie with now and
// with pending events and cross RunUntil horizons, and the fire sequence
// must still match.
func TestDifferentialAgainstReferenceHeap(t *testing.T) {
	for _, mode := range []string{"simulator", "queue"} {
		t.Run(mode, func(t *testing.T) { differential(t, mode == "queue") })
	}
}

// differential is TestDifferentialAgainstReferenceHeap's body. With bare
// set it drives a Queue directly and adds acausal pushes; otherwise it
// drives a Simulator.
func differential(t *testing.T, bare bool) {
	r := rng.New(99)
	sim := New()
	var q Queue
	ref := newRefSim()
	var gotFired, refFired []int
	var at []float64 // scheduled time by id
	type pair struct {
		c Token
		r refToken
	}
	var live []pair
	schedule := func(tm float64) {
		id := len(at)
		at = append(at, tm)
		h := func() { gotFired = append(gotFired, id) }
		var tok Token
		if bare {
			tok = q.Push(tm, h)
		} else {
			tok = sim.At(tm, h)
		}
		live = append(live, pair{
			c: tok,
			r: ref.At(tm, func() { refFired = append(refFired, id) }),
		})
	}
	cancel := func(tok Token) bool {
		if bare {
			return q.Cancel(tok)
		}
		return sim.Cancel(tok)
	}
	pending := func() int {
		if bare {
			return q.Len()
		}
		return sim.Pending()
	}
	ch := &chainRun{}
	if !bare {
		ch.start(sim, ref, &gotFired, &refFired)
	}
	now, cancelled := 0.0, 0
	for round := 0; round < 200; round++ {
		burst := 1 + int(r.Uint64()%uint64(1+(round%7)*60))
		for k := 0; k < burst; k++ {
			var gap float64
			switch r.Uint64() % 5 {
			case 0:
				gap = 0 // exact tie with now
			case 1:
				gap = math.Floor(r.Float64() * 8) // coarse grid forces shared timestamps
			case 2:
				gap = r.Float64() * 3 // dense near future
			case 3:
				gap = r.Float64() * 500 // far future
			default:
				gap = r.Float64() * 20
			}
			if bare {
				switch r.Uint64() % 8 {
				case 0:
					gap = math.Inf(-1) // the wall clock's Submit
				case 1:
					gap = -r.Float64() * 10 // before the last pop
				}
			}
			schedule(now + gap)
		}
		for k := int(r.Uint64() % 8); k > 0 && len(live) > 0; k-- {
			j := int(r.Uint64() % uint64(len(live)))
			gotCancel := cancel(live[j].c)
			refCancel := ref.Cancel(live[j].r)
			if gotCancel != refCancel {
				t.Fatalf("round %d: Cancel disagreement: arena=%v heap=%v", round, gotCancel, refCancel)
			}
			if gotCancel {
				cancelled++
				schedule(now + r.Float64()*50) // reschedule the cancelled event
			}
		}
		now += r.Float64() * 30
		if bare {
			for tm, ok := q.PeekTime(); ok && tm <= now; tm, ok = q.PeekTime() {
				popped, h := q.Pop()
				if popped != tm {
					t.Fatalf("round %d: Pop returned time %g, PeekTime %g", round, popped, tm)
				}
				h()
			}
		} else {
			sim.RunUntil(now)
		}
		for ref.Pending() > 0 && ref.queue[0].time <= now {
			ref.step()
		}
		ref.now = now
		if len(gotFired) != len(refFired) || pending() != ref.Pending() {
			t.Fatalf("round %d: fired %d (pending %d), heap fired %d (pending %d)",
				round, len(gotFired), pending(), len(refFired), ref.Pending())
		}
	}
	if bare {
		for q.Len() > 0 {
			_, h := q.Pop()
			h()
		}
	} else {
		sim.Run()
	}
	ref.run()
	if len(gotFired) != len(refFired) {
		t.Fatalf("drained %d events, heap drained %d", len(gotFired), len(refFired))
	}
	if want := len(at) - cancelled + len(ch.at); len(gotFired) != want {
		t.Fatalf("fired %d events, want %d scheduled - %d cancelled + %d chained",
			len(gotFired), len(at), cancelled, len(ch.at))
	}
	for i := range gotFired {
		if gotFired[i] != refFired[i] {
			t.Fatalf("pop order diverges at %d: arena fired %d, heap fired %d", i, gotFired[i], refFired[i])
		}
	}
	timeOf := func(id int) float64 {
		if id < 0 {
			return ch.at[-id-1]
		}
		return at[id]
	}
	for i := 1; !bare && i < len(gotFired); i++ {
		if timeOf(gotFired[i]) < timeOf(gotFired[i-1]) {
			t.Fatalf("fire order regressed at %d: %g after %g", i, timeOf(gotFired[i]), timeOf(gotFired[i-1]))
		}
	}
	if cancelled == 0 || len(gotFired) == 0 {
		t.Fatalf("workload too thin: fired %d, cancelled %d", len(gotFired), cancelled)
	}
	if !bare && (ch.inPlace == 0 || ch.booked == 0) {
		t.Fatalf("chain too thin: %d occurrences in place, %d booked", ch.inPlace, ch.booked)
	}
}

// chainLen is how many occurrences differential's self-rebooking chain runs.
const chainLen = 3000

// chainRun is what the Simulator side of differential's chain did: its
// fire times by occurrence, and how many occurrences it ran in place and
// how many it booked. The queue mode runs no chain and leaves it zero.
type chainRun struct {
	at              []float64
	inPlace, booked int
}

// start books differential's self-rebooking chains at t=0. Occurrence
// k records id −(k+1) in got (Simulator) and want (reference). The
// Simulator chain tries TryAdvance before At; the reference chain always
// books through At. Both draw the same successor sequence from their own
// equally seeded streams, so any difference in the fire sequences is a
// TryAdvance misjudgement.
func (ch *chainRun) start(sim *Simulator, ref *refSim, got, want *[]int) {
	// next draws a successor time: a tie with now or with the earliest
	// pending event, the dense near future, a coarse grid, or far enough
	// ahead to cross a RunUntil horizon.
	next := func(r *rng.Source, now float64, earliest func() (float64, bool)) float64 {
		choice, u := r.Uint64()%5, r.Float64()
		switch choice {
		case 0:
			return now
		case 1:
			if t, ok := earliest(); ok {
				return t
			}
			return now + 1
		case 2:
			return now + u*3
		case 3:
			return now + math.Floor(u*8)
		default:
			return now + u*40
		}
	}
	simRng, refRng := rng.New(5), rng.New(5)
	k := 0
	var simStep Handler
	simStep = func() {
		for {
			*got = append(*got, -(k + 1))
			ch.at = append(ch.at, sim.Now())
			k++
			if k == chainLen {
				return
			}
			t := next(simRng, sim.Now(), sim.q.PeekTime)
			if !sim.TryAdvance(t) {
				ch.booked++
				sim.At(t, simStep)
				return
			}
			ch.inPlace++
		}
	}
	refK := 0
	var refStep Handler
	refStep = func() {
		*want = append(*want, -(refK + 1))
		refK++
		if refK == chainLen {
			return
		}
		ref.At(next(refRng, ref.now, func() (float64, bool) {
			if len(ref.queue) == 0 {
				return 0, false
			}
			return ref.queue[0].time, true
		}), refStep)
	}
	sim.At(0, simStep)
	ref.At(0, refStep)
}

// TestCancelAfterPopIsInert pins the cancel-after-pop edge: a Token whose
// event already fired cancels nothing, even after heavy slot recycling puts
// a new event into the same arena slot.
func TestCancelAfterPopIsInert(t *testing.T) {
	s := New()
	tok := s.At(1, func() {})
	bFired := false
	s.At(2, func() { bFired = true })
	s.RunUntil(1.5)
	if s.Cancel(tok) {
		t.Fatal("Cancel returned true for a popped event")
	}
	// Recycle the popped slot many times over.
	for i := 0; i < 50; i++ {
		s.Cancel(s.At(s.Now()+1, func() {}))
	}
	if s.Cancel(tok) {
		t.Fatal("Cancel of popped event hit a recycled slot")
	}
	s.Run()
	if !bFired {
		t.Fatal("unrelated event lost")
	}
}

// TestStaleGenerationCancelAcrossManyReuses cycles one arena slot through
// repeated cancel/reuse rounds: every retired generation's Token must stay
// dead while each fresh generation cancels exactly once.
func TestStaleGenerationCancelAcrossManyReuses(t *testing.T) {
	s := New()
	stale := s.At(1, func() { t.Error("cancelled event fired") })
	if !s.Cancel(stale) {
		t.Fatal("first cancel failed")
	}
	old := []Token{stale}
	for round := 0; round < 10; round++ {
		tok := s.At(float64(round)+1, func() { t.Error("cancelled event fired") })
		for _, dead := range old {
			if s.Cancel(dead) {
				t.Fatalf("round %d: stale generation cancelled a live event", round)
			}
		}
		if !s.Cancel(tok) {
			t.Fatalf("round %d: live token failed to cancel", round)
		}
		old = append(old, tok)
	}
	s.Run()
	if s.Fired() != 0 {
		t.Fatalf("fired %d events, want 0", s.Fired())
	}
}

// TestFarFutureOutlierStaysOrdered schedules one event far beyond dense
// traffic: it must pop last, exactly once.
func TestFarFutureOutlierStaysOrdered(t *testing.T) {
	s := New()
	var fired []float64
	note := func() { fired = append(fired, s.Now()) }
	s.At(1e9, note)
	for i := 1; i <= 200; i++ {
		s.At(float64(i), note)
	}
	s.Run()
	if len(fired) != 201 {
		t.Fatalf("fired %d, want 201", len(fired))
	}
	if fired[200] != 1e9 {
		t.Fatalf("outlier fired at position with time %g", fired[200])
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("fire order regressed at %d", i)
		}
	}
}
