// Package clock abstracts the engine's time source so the same hybrid
// push/pull scheduler can run in two modes:
//
//   - Virtual — simulated time: internal/event's discrete-event loop
//     itself. event.Simulator satisfies Clock as it is, so scheduling,
//     tie-breaking and handler ordering are exactly the event package's.
//   - Wall — real time for the serving mode (cmd/qosd): a single goroutine
//     owns handler execution and fires callbacks when their scheduled
//     instant arrives on the machine clock. Its pending handlers sit in the
//     same event.Queue the virtual loop uses, so (time, insertion order)
//     tie-breaking and Token semantics are identical in both modes.
//
// Time is measured in broadcast units in both modes; the Wall clock maps a
// unit onto a configurable wall duration. All handlers of one clock run on
// one goroutine — engines built on a Clock need no further locking.
//
// The determinism contract (DESIGN.md) confines wall-clock reads to the
// Wall implementation in wall.go; qoslint's nondeterminism rule allowlists
// exactly that file and bans time.Now/time.Since everywhere else in
// library code.
package clock

import "hybridqos/internal/event"

// Clock schedules handlers on a one-goroutine time line. Implementations
// decide how time advances: the Virtual clock jumps to the next scheduled
// event, the Wall clock follows the machine clock.
type Clock interface {
	// Now returns the current time in broadcast units.
	Now() float64
	// At schedules h to run at absolute time t and returns a Token for
	// cancellation. The virtual clock panics when t is in the past (a
	// causality bug); the wall clock clamps past instants to "now" because
	// real time advances between the caller's read and the call.
	At(t float64, h func()) Token
	// After schedules h to run delay units from Now.
	After(delay float64, h func()) Token
	// Cancel removes a scheduled handler. Cancelling an already-fired or
	// already-cancelled handler is a no-op and returns false.
	Cancel(tok Token) bool
}

// Token identifies a scheduled handler so it can be cancelled. The zero
// Token is valid and cancels nothing. A Token held past its handler's
// firing goes stale and cancels nothing.
type Token = event.Token

// Virtual is simulated time: the event loop, single-threaded like it (the
// goroutine that calls RunUntil owns every handler).
type Virtual = event.Simulator

// NewVirtual returns a Virtual clock with the time at zero.
func NewVirtual() *Virtual { return event.New() }

var (
	_ Clock = (*Virtual)(nil)
	_ Clock = (*Wall)(nil)
)
