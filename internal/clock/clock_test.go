package clock

import (
	"sync"
	"testing"
	"time"

	"hybridqos/internal/event"
)

// TestVirtualMirrorsSimulator pins the bit-identity claim at its root: a
// schedule driven through the Virtual adapter fires in exactly the order and
// at exactly the times the raw simulator produces.
func TestVirtualMirrorsSimulator(t *testing.T) {
	run := func(at func(t float64, h func()), now func() float64, run func()) []float64 {
		var fired []float64
		at(3, func() { fired = append(fired, now()) })
		at(1, func() {
			fired = append(fired, now())
			at(1, func() { fired = append(fired, now()) }) // same-time tie
			at(2, func() { fired = append(fired, now()) })
		})
		run()
		return fired
	}

	sim := event.New()
	raw := run(func(tm float64, h func()) { sim.At(tm, h) }, sim.Now, sim.Run)

	v := NewVirtual()
	adapted := run(func(tm float64, h func()) { v.At(tm, h) }, v.Now, v.Run)

	if len(raw) != len(adapted) {
		t.Fatalf("fired %d handlers via Virtual, %d via Simulator", len(adapted), len(raw))
	}
	for i := range raw {
		if raw[i] != adapted[i] {
			t.Errorf("firing %d: Virtual at t=%g, Simulator at t=%g", i, adapted[i], raw[i])
		}
	}
}

func TestVirtualCancel(t *testing.T) {
	v := NewVirtual()
	fired := false
	tok := v.After(5, func() { fired = true })
	if !v.Cancel(tok) {
		t.Fatal("Cancel of a pending handler returned false")
	}
	if v.Cancel(tok) {
		t.Error("second Cancel returned true")
	}
	if (Token{}) != tok {
		// tok holds the stale event; cancelling the zero Token must also be
		// a no-op.
		if v.Cancel(Token{}) {
			t.Error("Cancel of the zero Token returned true")
		}
	}
	v.RunUntil(10)
	if fired {
		t.Error("cancelled handler fired")
	}
}

func TestVirtualRunUntilAdvancesClock(t *testing.T) {
	v := NewVirtual()
	v.RunUntil(42)
	if got := v.Now(); got != 42 {
		t.Errorf("Now() = %g after RunUntil(42)", got)
	}
}

// TestWallOrderAndTies checks the wall loop fires due handlers in (time,
// insertion) order even when everything is already due.
func TestWallOrderAndTies(t *testing.T) {
	w, err := NewWall(time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []int
	done := make(chan struct{})
	// All in the past by the time the loop starts: order must be (t, seq).
	w.At(0, func() { mu.Lock(); order = append(order, 1); mu.Unlock() })
	w.At(0, func() { mu.Lock(); order = append(order, 2); mu.Unlock() })
	w.Submit(func() { mu.Lock(); order = append(order, 0); mu.Unlock() }) // -Inf: before both
	w.At(0, func() {
		mu.Lock()
		order = append(order, 3)
		mu.Unlock()
		close(done)
	})
	go w.Run()
	defer w.Stop()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("wall loop did not fire handlers")
	}
	mu.Lock()
	defer mu.Unlock()
	for i, v := range order {
		if v != i {
			t.Fatalf("firing order %v, want 0,1,2,3", order)
		}
	}
}

func TestWallTimedFire(t *testing.T) {
	w, err := NewWall(time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	go w.Run()
	defer w.Stop()
	fired := make(chan float64, 1)
	start := w.Now()
	w.After(20, func() { fired <- w.Now() })
	select {
	case at := <-fired:
		if at < start+20 {
			t.Errorf("handler fired at %g units, scheduled for %g", at, start+20)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timed handler never fired")
	}
}

func TestWallCancel(t *testing.T) {
	w, err := NewWall(time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	go w.Run()
	fired := make(chan struct{}, 1)
	tok := w.After(50, func() { fired <- struct{}{} })
	if !w.Cancel(tok) {
		t.Fatal("Cancel of a pending wall handler returned false")
	}
	if w.Cancel(tok) {
		t.Error("second Cancel returned true")
	}
	if w.Cancel(Token{}) {
		t.Error("Cancel of the zero Token returned true")
	}
	// Let a later handler pass the cancelled one's instant.
	passed := make(chan struct{})
	w.After(75, func() { close(passed) })
	select {
	case <-passed:
	case <-time.After(5 * time.Second):
		t.Fatal("wall loop stalled")
	}
	select {
	case <-fired:
		t.Error("cancelled wall handler fired")
	default:
	}
	w.Stop()
	select {
	case <-w.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after Stop")
	}
}

// TestWallStaleTokensAfterSlotReuse pins the Token contract on the wall
// clock, whose handlers live in recycled arena slots: a fired handler's
// Token cannot cancel the handler that reuses its slot, a cancelled Token
// stays dead after its slot is reused, and the reusing handlers still fire.
func TestWallStaleTokensAfterSlotReuse(t *testing.T) {
	w, err := NewWall(time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	go w.Run()
	defer w.Stop()
	wait := func(ch chan struct{}, what string) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never fired", what)
		}
	}

	// The queue's arena holds one slot while a is the only handler, so b
	// reuses a's slot once a has fired.
	aFired := make(chan struct{})
	a := w.At(0, func() { close(aFired) })
	wait(aFired, "due handler")
	bFired := make(chan struct{})
	w.After(20, func() { close(bFired) })
	if w.Cancel(a) {
		t.Fatal("a fired handler's Token cancelled the handler reusing its slot")
	}

	// c takes the next fresh slot; d reuses it after c is cancelled.
	c := w.After(1e6, func() { t.Error("cancelled wall handler fired") })
	if !w.Cancel(c) {
		t.Fatal("Cancel of a pending wall handler returned false")
	}
	dFired := make(chan struct{})
	w.After(30, func() { close(dFired) })
	if w.Cancel(c) {
		t.Fatal("a cancelled Token cancelled the handler reusing its slot")
	}
	wait(bFired, "handler in the fired handler's slot")
	wait(dFired, "handler in the cancelled handler's slot")
}

func TestWallStopIdempotent(t *testing.T) {
	w, err := NewWall(time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	go w.Run()
	w.Stop()
	w.Stop()
	select {
	case <-w.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return")
	}
}

func TestNewWallRejectsBadUnit(t *testing.T) {
	if _, err := NewWall(0); err == nil {
		t.Error("NewWall(0) succeeded")
	}
	if _, err := NewWall(-time.Second); err == nil {
		t.Error("NewWall(-1s) succeeded")
	}
}

// TestWallWakeWhileArmed wakes the loop while its timer is armed, over and
// over: each round books a handler a few microseconds out and, while the
// loop waits on it, books another that lands at about the same instant, so
// the wake and the timer's fire race. Every handler must fire exactly once
// and never before its instant, and the loop must keep waking up (a
// mishandled stop-and-drain either blocks it or leaves a stale fire). Run it
// under -race -count=10.
func TestWallWakeWhileArmed(t *testing.T) {
	w, err := NewWall(time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	go w.Run()
	defer w.Stop()
	// A far handler keeps the timer armed between rounds.
	w.After(1e9, func() { t.Error("far handler fired") })
	const rounds = 200
	fired := make(chan bool, 2*rounds)
	at := func(due float64) {
		w.At(due, func() { fired <- w.Now() >= due })
	}
	for i := 0; i < rounds; i++ {
		at(w.Now() + float64(1+i%20))
		time.Sleep(time.Duration(i%7) * time.Microsecond)
		at(w.Now() + float64(i%3))
	}
	for i := 0; i < 2*rounds; i++ {
		select {
		case onTime := <-fired:
			if !onTime {
				t.Error("handler fired before its instant")
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d handlers fired, then the loop stalled", i, 2*rounds)
		}
	}
}

// TestWallWaitAllocs pins the loop's allocation-free timed wait: a prebuilt
// handler booked a fraction of a unit ahead makes the loop wait on its one
// reused timer, so a round trip allocates nothing.
func TestWallWaitAllocs(t *testing.T) {
	w, err := NewWall(time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	go w.Run()
	defer w.Stop()
	done := make(chan struct{})
	h := func() { done <- struct{}{} }
	allocs := testing.AllocsPerRun(50, func() {
		w.At(w.Now()+0.2, h)
		<-done
	})
	t.Logf("%.2f allocs per timed wait", allocs)
	if allocs >= 1 {
		t.Errorf("%.2f allocs per timed wait, want 0", allocs)
	}
}
