package clock

// This file is the repository's single sanctioned home of wall-clock reads:
// qoslint's nondeterminism rule allowlists time.Now/time.Since here (and
// only here). Everything deterministic — the sim engine, policies,
// admission — must take time as an argument or schedule through a Clock.

import (
	"fmt"
	"math"
	"sync"
	"time"

	"hybridqos/internal/event"
)

// Wall is real time: one broadcast unit lasts a configurable wall duration,
// and handlers fire when their scheduled instant arrives on the machine
// clock. A single goroutine (the caller of Run) owns handler execution;
// At/After/Submit/Cancel are safe to call from any goroutine, so HTTP
// handlers can hand work to the engine loop without extra locking.
//
// Pending handlers live in an event.Queue, the virtual loop's queue, so
// ties are broken by insertion order exactly as there; a handler scheduled
// in the past runs as soon as the loop reaches it.
type Wall struct {
	unit   time.Duration
	origin time.Time

	mu      sync.Mutex
	q       event.Queue
	stopped bool
	wake    chan struct{}
	done    chan struct{}
}

// NewWall returns a Wall clock whose broadcast unit lasts the given wall
// duration. The clock starts at time zero (= the moment of this call).
func NewWall(unit time.Duration) (*Wall, error) {
	if unit <= 0 {
		return nil, fmt.Errorf("clock: non-positive wall unit %v", unit)
	}
	return &Wall{
		unit:   unit,
		origin: time.Now(),
		wake:   make(chan struct{}, 1),
		done:   make(chan struct{}),
	}, nil
}

// Now implements Clock: broadcast units elapsed since the clock was built.
func (w *Wall) Now() float64 {
	return float64(time.Since(w.origin)) / float64(w.unit)
}

// At implements Clock. Unlike the virtual clock, an instant in the past
// does not panic — real time advances between the caller's Now read and
// this call — the handler simply fires as soon as the loop reaches it.
// NaN panics: it has no place on any time line.
func (w *Wall) At(t float64, h func()) Token {
	if math.IsNaN(t) {
		panic("clock: scheduling at NaN")
	}
	if h == nil {
		panic("clock: nil handler")
	}
	w.mu.Lock()
	tok := w.q.Push(t, h)
	w.mu.Unlock()
	w.nudge()
	return tok
}

// After implements Clock. Negative delay panics, as on the virtual clock.
func (w *Wall) After(delay float64, h func()) Token {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("clock: negative delay %g", delay))
	}
	return w.At(w.Now()+delay, h)
}

// Submit schedules h to run as soon as possible on the loop goroutine. It
// is scheduled at −Inf, so it runs before every handler already due and
// after handlers submitted earlier. It is the bridge from foreign
// goroutines (HTTP handlers, signal handlers) into the engine's
// single-threaded world.
func (w *Wall) Submit(h func()) { w.At(math.Inf(-1), h) }

// Cancel implements Clock.
func (w *Wall) Cancel(tok Token) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.q.Cancel(tok)
}

// nudge wakes the Run loop without blocking.
func (w *Wall) nudge() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// Run executes handlers as their instants arrive, blocking until Stop is
// called. It must be called exactly once; every handler runs on the
// goroutine that calls it.
func (w *Wall) Run() {
	defer close(w.done)
	// One timer serves every wait. Under go.mod's go 1.22 the timer channel
	// is buffered, so a wake that stops a timer which already fired must
	// drain that fire, or the next wait would return at once. The drain
	// blocks: when Stop reports false the fire is sent or being sent.
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	for {
		w.mu.Lock()
		if w.stopped {
			w.mu.Unlock()
			return
		}
		var h func()
		wait := time.Duration(-1)
		if t, ok := w.q.PeekTime(); ok {
			nowU := float64(time.Since(w.origin)) / float64(w.unit)
			if t <= nowU {
				_, h = w.q.Pop()
			} else {
				d := (t - nowU) * float64(w.unit)
				// Clamp absurd horizons so the float→Duration conversion
				// cannot overflow; the loop re-derives the wait each pass.
				if d > float64(time.Hour) {
					d = float64(time.Hour)
				}
				wait = time.Duration(d)
			}
		}
		w.mu.Unlock()
		if h != nil {
			h()
			continue
		}
		if wait < 0 {
			<-w.wake
			continue
		}
		timer.Reset(wait)
		select {
		case <-w.wake:
			if !timer.Stop() {
				<-timer.C
			}
		case <-timer.C:
		}
	}
}

// Stop makes Run return after the in-flight handler finishes. Pending
// handlers are discarded. Safe to call from any goroutine, more than once.
func (w *Wall) Stop() {
	w.mu.Lock()
	w.stopped = true
	w.mu.Unlock()
	w.nudge()
}

// Done is closed when Run has returned.
func (w *Wall) Done() <-chan struct{} { return w.done }
