package core

// Two slot arenas keep per-request state off the heap in steady state:
// reqArena below for submitted requests, and retryArena (at the end of the
// file) for booked loss retries.
//
// Struct-of-arrays arena for submitted requests (serving mode). One
// admitted request = one int32 slot across the parallel field slices; freed
// slots recycle through a freelist, so steady-state serving allocates no
// per-request objects and the engine's request records (pull-queue
// pullqueue.Request.Tag, pushWaiter.tag) carry generation-packed handles
// instead of pointers.
//
// A handle packs −(gen<<32 | slot). Generations start at 1, bump whenever a
// slot is released and stay below 2^31, so every handle is negative: it
// never collides with the simulator's tags, which are span IDs (≥ 0, 0 when
// the request is unsampled). A handle outliving its request (in a
// pull-queue entry or a push-waiter list) goes inert the moment the request
// is answered — the same staleness contract event.Token gives the
// scheduler, applied to requests.

import (
	"sync"

	"hybridqos/internal/clients"
	"hybridqos/internal/clock"
	"hybridqos/internal/pullqueue"
)

// maxGen bounds slot generations so the packed handle stays negative.
const maxGen = 1<<31 - 1

// reqArena holds every live submitted request's fields in parallel slices.
type reqArena struct {
	item    []int32
	class   []clients.Class
	arrival []float64
	span    []int64 // span ID, 0 when unsampled
	done    []Done
	expiry  []clock.Token
	expireH []func() // per-slot expiry handler, built once at grow
	gen     []uint32
	free    []int32 // recycled slots awaiting reuse

	// onExpire is the engine's expiry path; the per-slot handlers call it.
	// A slot's expiry timer is always cancelled before the slot is
	// released, so its handler only ever fires for the current occupant.
	onExpire func(slot int32)
}

// alloc returns a free slot; its generation was bumped when it was freed.
//
//qos:hotpath
func (a *reqArena) alloc() int32 {
	if n := len(a.free); n > 0 {
		slot := a.free[n-1]
		a.free = a.free[:n-1]
		return slot
	}
	return a.grow()
}

// grow is alloc's cold path: the arena extends to the peak concurrent
// request count once, then the freelist recycles.
func (a *reqArena) grow() int32 {
	slot := int32(len(a.gen))
	a.item = append(a.item, 0)
	a.class = append(a.class, 0)
	a.arrival = append(a.arrival, 0)
	a.span = append(a.span, 0)
	a.done = append(a.done, nil)
	a.expiry = append(a.expiry, clock.Token{})
	a.expireH = append(a.expireH, func() { a.onExpire(slot) })
	a.gen = append(a.gen, 1)
	return slot
}

// handle packs the slot's current generation into its external identity.
//
//qos:hotpath
func (a *reqArena) handle(slot int32) int64 {
	return -(int64(a.gen[slot])<<32 | int64(uint32(slot)))
}

// live resolves a handle to its slot, failing once the request has been
// answered (its slot released: stale generation).
//
//qos:hotpath
func (a *reqArena) live(h int64) (int32, bool) {
	x := -h
	slot := int32(uint32(x))
	if slot < 0 || int(slot) >= len(a.gen) || a.gen[slot] != uint32(x>>32) {
		return 0, false
	}
	return slot, true
}

// release recycles an answered request's slot: the generation bump makes
// every handle to it inert, and the callback is dropped so it does not
// outlive the request.
//
//qos:hotpath
func (a *reqArena) release(slot int32) {
	if a.gen[slot] == maxGen {
		a.gen[slot] = 0
	}
	a.gen[slot]++
	a.done[slot] = nil
	a.expiry[slot] = clock.Token{}
	if n := len(a.free); n < cap(a.free) {
		a.free = a.free[:n+1]
		a.free[n] = slot
	} else {
		a.freeGrow(slot)
	}
}

// freeGrow is release's cold path: the freelist reaches peak-concurrency
// length once, then recycles.
func (a *reqArena) freeGrow(slot int32) {
	a.free = append(a.free, slot)
}

// retryArena holds every booked loss retry's request between the failed
// delivery and its backoff firing. A slot's handler is built once, when
// the slot is created, and hands the slot to onFire; fired slots recycle
// through a freelist, so steady-state retries allocate nothing. The
// handlers capture only the arena, so a finished run's arena, handlers
// included, is handed to the next Server through retryArenas.
type retryArena struct {
	req  []pullqueue.Request
	fire []func() // per-slot handler, built once at grow
	free []int32  // recycled slots awaiting reuse

	// onFire is the engine's retry path; it copies the request out and
	// releases the slot before running the retry.
	onFire func(slot int32)
}

// retryArenas pools the retry arenas of finished runs (*retryArena, every
// slot free and onFire cleared), so a run's retry slots start at the count
// the last run grew them to. A Request holds no pointers, so stale
// requests keep nothing alive.
var retryArenas sync.Pool

// newRetryArena returns an arena whose slots fire into onFire: a pooled
// one when the pool has one, else an empty one.
func newRetryArena(onFire func(slot int32)) *retryArena {
	a, ok := retryArenas.Get().(*retryArena)
	if !ok {
		a = &retryArena{}
	}
	a.onFire = onFire
	return a
}

// pool frees every slot, drops the engine's retry path (so the pool keeps
// no Server alive) and hands the arena to the next Server built. Retries
// still booked are abandoned with their clock; the arena is unusable
// afterwards.
func (a *retryArena) pool() {
	a.onFire = nil
	a.free = a.free[:0]
	for slot := range a.req {
		a.free = append(a.free, int32(slot))
	}
	retryArenas.Put(a)
}

// alloc returns a free slot.
//
//qos:hotpath
func (a *retryArena) alloc() int32 {
	if n := len(a.free); n > 0 {
		slot := a.free[n-1]
		a.free = a.free[:n-1]
		return slot
	}
	return a.grow()
}

// grow is alloc's cold path: the arena extends to the peak count of
// retries booked at once, then the freelist recycles.
func (a *retryArena) grow() int32 {
	slot := int32(len(a.req))
	a.req = append(a.req, pullqueue.Request{})
	a.fire = append(a.fire, func() { a.onFire(slot) })
	return slot
}

// release recycles a fired retry's slot.
//
//qos:hotpath
func (a *retryArena) release(slot int32) {
	if n := len(a.free); n < cap(a.free) {
		a.free = a.free[:n+1]
		a.free[n] = slot
	} else {
		a.freeGrow(slot)
	}
}

// freeGrow is release's cold path: the freelist reaches the peak count of
// retries booked at once, then recycles.
func (a *retryArena) freeGrow(slot int32) {
	a.free = append(a.free, slot)
}
