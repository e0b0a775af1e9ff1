package event

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"hybridqos/internal/rng"
)

func TestFiresInTimeOrder(t *testing.T) {
	s := New()
	var got []float64
	for _, tm := range []float64{5, 1, 3, 2, 4} {
		tm := tm
		s.At(tm, func() { got = append(got, s.Now()) })
	}
	s.Run()
	want := []float64{1, 2, 3, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
	if len(got) != 5 || s.Pending() != 0 {
		t.Fatalf("fired %d, Pending=%d", len(got), s.Pending())
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(7, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of insertion order: %v", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	s := New()
	var at float64
	s.At(10, func() {
		s.After(5, func() { at = s.Now() })
	})
	s.Run()
	if at != 15 {
		t.Fatalf("After(5) from t=10 fired at %g", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("At(past) did not panic")
			}
		}()
		s.At(9, func() {})
	})
	s.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("After(-1) did not panic")
		}
	}()
	s.After(-1, func() {})
}

func TestNaNTimePanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("At(NaN) did not panic")
		}
	}()
	s.At(math.NaN(), func() {})
}

func TestNilHandlerPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler did not panic")
		}
	}()
	s.At(1, nil)
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	tok := s.At(5, func() { fired = true })
	if !s.Cancel(tok) {
		t.Fatal("Cancel returned false on pending event")
	}
	if s.Cancel(tok) {
		t.Fatal("double Cancel returned true")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelFiredEventIsNoop(t *testing.T) {
	s := New()
	tok := s.At(1, func() {})
	s.Run()
	if s.Cancel(tok) {
		t.Fatal("Cancel of fired event returned true")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	s := New()
	var got []float64
	var toks []Token
	for _, tm := range []float64{1, 2, 3, 4, 5} {
		tm := tm
		toks = append(toks, s.At(tm, func() { got = append(got, s.Now()) }))
	}
	s.Cancel(toks[2]) // remove t=3
	s.Run()
	want := []float64{1, 2, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

func TestStop(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		i := i
		s.At(float64(i), func() {
			count++
			if i == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Fatalf("fired %d events, want 3", count)
	}
	if s.Pending() != 7 {
		t.Fatalf("Pending = %d, want 7", s.Pending())
	}
	// Resume.
	s.Run()
	if count != 10 {
		t.Fatalf("after resume fired %d total", count)
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var fired []float64
	for _, tm := range []float64{1, 2, 3, 10, 20} {
		tm := tm
		s.At(tm, func() { fired = append(fired, s.Now()) })
	}
	s.RunUntil(5)
	if len(fired) != 3 {
		t.Fatalf("fired %v before horizon 5", fired)
	}
	if s.Now() != 5 {
		t.Fatalf("clock at %g after RunUntil(5)", s.Now())
	}
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d", s.Pending())
	}
	s.RunUntil(25)
	if len(fired) != 5 || s.Now() != 25 {
		t.Fatalf("after second horizon: fired=%v now=%g", fired, s.Now())
	}
}

func TestRunUntilPastHorizonPanics(t *testing.T) {
	s := New()
	s.At(3, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("RunUntil(past) did not panic")
		}
	}()
	s.RunUntil(1)
}

// TestRunUntilNaNPanics pins the NaN horizon: no event is at or before it,
// so RunUntil must refuse it rather than fire everything pending.
func TestRunUntilNaNPanics(t *testing.T) {
	s := New()
	fired := false
	s.At(1e9, func() { fired = true })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("RunUntil(NaN) did not panic")
		}
		if msg, _ := r.(string); !strings.HasPrefix(msg, "event:") {
			t.Fatalf("RunUntil(NaN) panicked with %v, want an event: message", r)
		}
		if fired {
			t.Fatal("RunUntil(NaN) fired the event at t=1e9")
		}
	}()
	s.RunUntil(math.NaN())
}

// TestTryAdvance pins when a handler may run its successor in place: only
// inside a run, up to its horizon, not after Stop, not before now, and only
// strictly ahead of every pending event (a pending event at the same instant
// was booked first, so it fires first). A refusal changes nothing.
func TestTryAdvance(t *testing.T) {
	refused := func(t *testing.T, s *Simulator, at float64) {
		t.Helper()
		now, pending := s.Now(), s.Pending()
		if s.TryAdvance(at) {
			t.Fatalf("TryAdvance(%g) at now=%g succeeded", at, now)
		}
		if s.Now() != now || s.Pending() != pending {
			t.Fatalf("refused TryAdvance moved now %g→%g, pending %d→%d", now, s.Now(), pending, s.Pending())
		}
	}
	t.Run("outside a run", func(t *testing.T) {
		s := New()
		refused(t, s, 1)
		s.RunUntil(5)
		refused(t, s, 6)
		s.Run()
		refused(t, s, 7)
	})
	t.Run("after Stop", func(t *testing.T) {
		s := New()
		s.At(1, func() { s.Stop(); refused(t, s, 2) })
		s.RunUntil(10)
	})
	t.Run("past the horizon", func(t *testing.T) {
		s := New()
		s.At(1, func() { refused(t, s, 5.5) })
		s.RunUntil(5)
	})
	t.Run("before now", func(t *testing.T) {
		s := New()
		s.At(3, func() { refused(t, s, 2) })
		s.Run()
	})
	t.Run("tie with a pending event", func(t *testing.T) {
		s := New()
		s.At(1, func() { refused(t, s, 4) })
		s.At(4, func() {})
		s.Run()
	})
	t.Run("strictly earliest", func(t *testing.T) {
		s := New()
		s.At(1, func() {
			if !s.TryAdvance(1) || s.Now() != 1 {
				t.Errorf("TryAdvance(now): ok=false or now=%g", s.Now())
			}
			if !s.TryAdvance(3.5) || s.Now() != 3.5 {
				t.Errorf("TryAdvance(3.5): ok=false or now=%g", s.Now())
			}
			if !s.TryAdvance(5) || s.Now() != 5 {
				t.Errorf("TryAdvance at the horizon: now=%g", s.Now())
			}
		})
		s.At(6, func() {})
		s.RunUntil(5)
		if s.Now() != 5 || s.Pending() != 1 {
			t.Fatalf("now=%g Pending=%d, want 5 and 1", s.Now(), s.Pending())
		}
		s.Run()
		if s.Now() != 6 || s.Pending() != 0 {
			t.Fatalf("now=%g Pending=%d after Run, want 6 and 0", s.Now(), s.Pending())
		}
	})
}

func TestRunUntilInclusiveBoundary(t *testing.T) {
	s := New()
	fired := false
	s.At(5, func() { fired = true })
	s.RunUntil(5)
	if !fired {
		t.Fatal("event exactly at horizon did not fire")
	}
}

func TestCascadingEvents(t *testing.T) {
	// A self-rescheduling process: verifies handlers can schedule while the
	// engine is mid-run, the standard DES usage pattern.
	s := New()
	ticks := 0
	var tick Handler
	tick = func() {
		ticks++
		if ticks < 100 {
			s.After(1, tick)
		}
	}
	s.At(0, tick)
	s.Run()
	if ticks != 100 {
		t.Fatalf("ticks = %d", ticks)
	}
	if s.Now() != 99 {
		t.Fatalf("clock at %g, want 99", s.Now())
	}
}

// Property: random schedules always fire in non-decreasing time order, and
// the clock never goes backwards.
func TestPropertyOrdering(t *testing.T) {
	r := rng.New(13)
	check := func(nRaw uint8) bool {
		n := int(nRaw%200) + 1
		s := New()
		times := make([]float64, n)
		var fired []float64
		for i := range times {
			times[i] = math.Floor(r.Float64()*50) / 2 // coarse grid forces ties
			tm := times[i]
			s.At(tm, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if len(fired) != n {
			return false
		}
		sort.Float64s(times)
		for i := range fired {
			if fired[i] != times[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleAndFire(b *testing.B) {
	s := New()
	h := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.At(s.Now()+float64(i%16), h)
		if s.Pending() > 1024 {
			s.RunUntil(s.Now() + 8)
		}
	}
	s.Run()
}

func TestStaleTokenCannotCancelRecycledEvent(t *testing.T) {
	s := New()
	fired := make([]string, 0, 2)
	tok := s.At(1, func() { fired = append(fired, "first") })
	s.Run()
	// The first event has fired; its storage may now back a new event.
	s.At(2, func() { fired = append(fired, "second") })
	if s.Cancel(tok) {
		t.Fatal("stale token cancelled something")
	}
	s.Run()
	if len(fired) != 2 || fired[1] != "second" {
		t.Fatalf("fired %v, want [first second]", fired)
	}
}

func TestCancelledTokenStaysDeadAfterReuse(t *testing.T) {
	s := New()
	tok := s.At(1, func() { t.Fatal("cancelled event fired") })
	if !s.Cancel(tok) {
		t.Fatal("first cancel failed")
	}
	ran := false
	s.At(1, func() { ran = true })
	if s.Cancel(tok) {
		t.Fatal("double cancel hit the recycled event")
	}
	s.Run()
	if !ran {
		t.Fatal("replacement event never fired")
	}
}

func TestEventStorageIsReused(t *testing.T) {
	s := New()
	// Steady-state schedule/fire cycles must stop allocating events: after
	// a warm-up the freelist satisfies every At.
	for i := 0; i < 100; i++ {
		s.At(s.Now(), func() {})
		s.Run()
	}
	if len(s.q.free) == 0 {
		t.Fatal("no events parked for reuse")
	}
	before := len(s.q.free)
	s.At(s.Now(), func() {})
	if len(s.q.free) != before-1 {
		t.Fatalf("At did not pop the freelist: %d -> %d", before, len(s.q.free))
	}
}
