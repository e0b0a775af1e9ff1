// Package pullqueue implements the server-side pull queue of the hybrid
// scheduler. Each queued entry aggregates every pending client request for
// one item, maintaining the two quantities the paper's selection rule needs:
//
//	stretch   S_i = R_i / L_i²                    (max-request min-service-time)
//	priority  Q_i = Σ_{requests j for i} q_j      (summed client priorities)
//
// Entry.Stretch and Entry.Gamma are the single canonical implementation of
// those quantities — every scheduling policy (internal/sched) scores entries
// through them, so a score computed by a policy and a score computed by a
// queue can never drift apart.
//
// Selection itself is pluggable: both queue implementations take an injected
// ScoreFunc and extract the entry with the maximum score, ties broken by
// lowest item rank so runs are deterministic. Two implementations are
// provided: Heap (indexed binary max-heap, O(log n) add/extract — restricted
// to time-independent scores that never decrease when a request is added, so
// position fixes are pure sift-ups; it scores an entry once per Add and
// orders by that cached key, so sifts and extractions never call the score
// function) and Linear (O(n) scan re-evaluating the score at extraction
// time), which supports time-dependent ageing policies (RxW-style) and
// doubles as the obviously-correct reference in property tests and as an
// ablation baseline. NewDeadlineHeap extends Heap to the one time-dependent
// score whose order a heap can still keep: earliest deadline first, where an
// entry's key is −(FirstArrival+TTL) until its deadline passes and −Inf for
// good afterwards.
//
// Validation is front-loaded: constructors return typed errors (AlphaError),
// and core.Config.Validate audits every catalog length and class weight
// before a simulation starts. The hot Add/ExtractBest paths trust validated
// inputs and never panic.
package pullqueue

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"hybridqos/internal/clients"
)

// Request is one pending client request for a pull item.
type Request struct {
	// Item is the requested item's catalog rank.
	Item int
	// Class is the requesting client's service class.
	Class clients.Class
	// Priority is the requesting client's priority weight q_j.
	Priority float64
	// Arrival is the simulated time the request reached the server.
	Arrival float64
	// Client identifies the requesting client for client-side cache fills;
	// −1 when client identity is not tracked.
	Client int
	// Attempts counts the re-requests already made for this request after
	// corrupted deliveries on a lossy downlink (0 for a first attempt).
	Attempts int
	// Tag is an opaque caller identifier carried through the queue. The
	// core engine stores the request's span ID there for generated
	// requests (0 when unsampled) and a negative arena handle for submitted
	// ones, which maps a delivery back to the caller waiting on it.
	Tag int64
}

// Entry aggregates the pending requests for one item.
type Entry struct {
	// Item is the catalog rank.
	Item int
	// Length is the item's transmission length, fixed at first enqueue.
	Length float64
	// Requests holds every pending request, in arrival order.
	Requests []Request
	// SumPriority is Q_i.
	SumPriority float64
	// FirstArrival is the earliest pending arrival time (for RxW-style
	// policies and ageing diagnostics).
	FirstArrival float64

	heapIndex int     // position in the heap; -1 when not enqueued
	key       float64 // Heap's cached score, refreshed by every Add
	expired   bool    // a deadline heap demoted key to −Inf for good
}

// NumRequests returns R_i.
func (e *Entry) NumRequests() int { return len(e.Requests) }

// Stretch returns S_i = R_i / L_i².
func (e *Entry) Stretch() float64 {
	return float64(len(e.Requests)) / (e.Length * e.Length)
}

// Gamma returns the importance factor γ_i = α·S_i + (1−α)·Q_i.
func (e *Entry) Gamma(alpha float64) float64 {
	return alpha*e.Stretch() + (1-alpha)*e.SumPriority
}

// HighestClass returns the most important (numerically lowest) class among
// the pending requests. It panics on an empty entry.
func (e *Entry) HighestClass() clients.Class {
	if len(e.Requests) == 0 {
		panic("pullqueue: HighestClass on empty entry")
	}
	best := e.Requests[0].Class
	for _, r := range e.Requests[1:] {
		if r.Class < best {
			best = r.Class
		}
	}
	return best
}

// ScoreFunc scores an entry for selection; the highest score wins, ties
// broken by lowest item rank. now is the current simulated time — Linear
// re-evaluates scores at every extraction, so time-dependent (ageing)
// scores work there. Heap scores an entry once per Add, with now = 0, and
// orders by that cached key; it requires scores to (a) ignore now and
// (b) never decrease when a request is added to the entry. Violating either
// silently breaks heap order. A deadline heap (NewDeadlineHeap) keys
// entries by deadline itself and calls the score only for Score.
type ScoreFunc func(e *Entry, now float64) float64

// AlphaError reports an importance-factor mixing fraction outside [0,1].
type AlphaError struct{ Alpha float64 }

func (e *AlphaError) Error() string {
	return fmt.Sprintf("pullqueue: alpha %g outside [0,1]", e.Alpha)
}

// ValidateAlpha reports whether α is a usable mixing fraction.
func ValidateAlpha(alpha float64) error {
	if alpha < 0 || alpha > 1 || math.IsNaN(alpha) {
		return &AlphaError{Alpha: alpha}
	}
	return nil
}

// GammaScore returns the paper's importance-factor score γ(α) as an
// injectable ScoreFunc. The score is time-independent and grows monotonically
// as requests accumulate, so it is heap-safe.
func GammaScore(alpha float64) (ScoreFunc, error) {
	if err := ValidateAlpha(alpha); err != nil {
		return nil, err
	}
	return func(e *Entry, _ float64) float64 { return e.Gamma(alpha) }, nil
}

// Queue is the interface shared by the heap and linear implementations.
type Queue interface {
	// Add enqueues a request (length fixes the item's transmission time on
	// the item's first pending request). Inputs must be valid — a positive
	// item rank, priority and length; the queue does not check them.
	Add(req Request, length float64)
	// ExtractBest removes and returns the entry with the largest score at
	// time now, or nil if the queue is empty.
	ExtractBest(now float64) *Entry
	// Peek returns the current max entry without removing it, or nil.
	// After an ExtractBest it exposes the runner-up of that decision.
	Peek(now float64) *Entry
	// Score returns an entry's selection score at time now: the quantity
	// extraction order is decided by, surfaced for decision provenance.
	Score(e *Entry, now float64) float64
	// Entry returns the queued entry for an item rank, or nil — read-only
	// provenance lookups (span enqueue scores); callers must not mutate it.
	Entry(item int) *Entry
	// Remove discards a specific item's entry (blocked transmissions),
	// returning it or nil.
	Remove(item int) *Entry
	// Items returns the number of distinct items queued.
	Items() int
	// Requests returns the total number of pending requests.
	Requests() int
	// Recycle returns an entry obtained from ExtractBest or Remove to the
	// queue's freelist so a later Add can reuse it (and its request-slice
	// capacity) instead of allocating. The caller must not retain the entry
	// afterwards. Entries still enqueued, nil entries and double recycles
	// are ignored, so Recycle is always safe to call.
	Recycle(e *Entry)
	// Drain removes every entry and returns them sorted by item rank — the
	// deterministic whole-backlog iteration order used by the cluster's
	// mobility model. Returned entries are live: the caller re-Adds the
	// requests it keeps and Recycles each drained entry when done with it.
	Drain() []*Entry
	// Release empties the queue and hands every queued and recycled entry,
	// with its request-slice capacity, to the next queue built, so a run
	// starts from the previous run's storage instead of regrowing it. The
	// caller must hold no entry of the queue (an extracted entry not yet
	// recycled is simply dropped) and must not use the queue afterwards.
	Release()
}

// freelists pools the freelists of released queues (*[]*Entry). Every
// pooled entry is parked: reset by park, its request slice cut to length 0
// with its capacity kept. Requests hold no pointers, so stale requests
// beyond the length keep nothing alive.
var freelists sync.Pool

// pooledFree returns a released queue's freelist, or nil when the pool is
// empty (the collector may drop pooled items at any time, and the race
// detector drops some on purpose): a queue then grows from empty.
func pooledFree() []*Entry {
	if f, ok := freelists.Get().(*[]*Entry); ok {
		return *f
	}
	return nil
}

// release parks every live entry onto free, as Recycle parks an extracted
// one, and pools the freelist.
func release(free []*Entry, live []*Entry) {
	for _, e := range live {
		e.heapIndex = -1
		park(&free, nil, e)
	}
	if len(free) > 0 {
		freelists.Put(&free)
	}
}

// freeIndex marks an entry parked on a queue's freelist (heapIndex is
// len(heap)-indexed while enqueued in a Heap and -1 once extracted).
const freeIndex = -2

// itemIndex maps item rank -> live queued entry as a dense slice. Ranks are
// small positive integers (1..D, validated at configuration time), so direct
// indexing replaces the map hash on every Add/Entry/Remove; the slice grows
// once to the highest rank seen and slot 0 stays unused. A nil slot means the
// item is not queued.
type itemIndex []*Entry

// get returns the live entry for a rank, or nil.
//
//qos:hotpath
func (ix itemIndex) get(item int) *Entry {
	if uint(item) < uint(len(ix)) {
		return ix[item]
	}
	return nil
}

// set records the live entry for a rank.
//
//qos:hotpath
func (ix *itemIndex) set(item int, e *Entry) {
	if uint(item) < uint(len(*ix)) {
		(*ix)[item] = e
		return
	}
	ix.grow(item, e)
}

// grow is set's cold path: the index extends to the highest item rank once.
func (ix *itemIndex) grow(item int, e *Entry) {
	for len(*ix) <= item {
		*ix = append(*ix, nil)
	}
	(*ix)[item] = e
}

// clear drops a rank's live entry.
//
//qos:hotpath
func (ix itemIndex) clear(item int) {
	if uint(item) < uint(len(ix)) {
		ix[item] = nil
	}
}

// reuse pops an entry from the freelist and re-initialises it for item, or
// allocates a fresh one. The recycled request slice keeps its capacity.
//
//qos:hotpath
func reuse(free *[]*Entry, req Request, length float64, heapIndex int) *Entry {
	n := len(*free)
	if n == 0 {
		return &Entry{
			Item:         req.Item,
			Length:       length,
			FirstArrival: req.Arrival,
			heapIndex:    heapIndex,
		}
	}
	e := (*free)[n-1]
	(*free)[n-1] = nil
	*free = (*free)[:n-1]
	e.Item = req.Item
	e.Length = length
	e.FirstArrival = req.Arrival
	e.heapIndex = heapIndex
	return e
}

// park resets an extracted entry and pushes it onto the freelist. It reports
// false (and does nothing) when the entry is nil, still enqueued, already
// parked, or still the live entry for its item.
//
//qos:hotpath
func park(free *[]*Entry, byItem itemIndex, e *Entry) bool {
	if e == nil || e.heapIndex != -1 || byItem.get(e.Item) == e {
		return false
	}
	e.Requests = e.Requests[:0]
	e.SumPriority = 0
	e.FirstArrival = 0
	e.Item = 0
	e.Length = 0
	e.key = 0
	e.expired = false
	e.heapIndex = freeIndex
	//lint:allow hotalloc amortized: the freelist grows to the steady-state entry population once, then recycles
	*free = append(*free, e)
	return true
}

// Heap is the production pull queue: an indexed binary max-heap over entries
// keyed by an injected time-independent score, with an item-rank index for
// O(1) entry lookup. A deadline heap (ttl > 0) keys entries by deadline
// instead and demotes expired ones as they reach the top.
type Heap struct {
	score    ScoreFunc
	ttl      float64 // > 0: keys are −(FirstArrival+ttl), demoted once passed
	heap     []*Entry
	byItem   itemIndex
	requests int
	free     []*Entry
}

// NewHeapFunc returns an empty heap-backed queue ordered by score. The score
// must be time-independent and must not decrease when a request is added to
// an entry (see ScoreFunc).
func NewHeapFunc(score ScoreFunc) (*Heap, error) {
	if score == nil {
		return nil, fmt.Errorf("pullqueue: nil score function")
	}
	return &Heap{score: score, free: pooledFree()}, nil
}

// NewDeadlineHeap returns an empty heap-backed queue in earliest-deadline-
// first order, where an entry's deadline is FirstArrival+ttl (ttl > 0) and
// score is the policy that defines that order:
//
//	score(e, now) = −(FirstArrival+ttl)  while now ≤ FirstArrival+ttl
//	              = −Inf                 once now > FirstArrival+ttl
//
// The heap keys each live entry by −(FirstArrival+ttl), computed as the
// score computes it, so the key equals score(e, now) bit for bit at every
// now up to the deadline. ExtractBest and Peek first demote expired entries
// at the top to −Inf, after which the top is exactly the entry a Linear
// scan of score picks at that now, ties included. An Add never raises a
// demoted key: expiry is permanent, since FirstArrival only falls and now
// never decreases. Precondition: now is non-decreasing across the queue's
// ExtractBest and Peek calls; a demotion at one now would be wrong at an
// earlier one. Score still calls score, so reported scores are the
// policy's own.
func NewDeadlineHeap(score ScoreFunc, ttl float64) (*Heap, error) {
	h, err := NewHeapFunc(score)
	if err != nil {
		return nil, err
	}
	h.ttl = ttl
	return h, nil
}

// Items returns the number of distinct queued items.
func (h *Heap) Items() int { return len(h.heap) }

// Requests returns the total pending request count.
func (h *Heap) Requests() int { return h.requests }

// Entry returns the queued entry for an item rank, or nil.
func (h *Heap) Entry(item int) *Entry { return h.byItem.get(item) }

// Score returns the entry's selection score.
func (h *Heap) Score(e *Entry, now float64) float64 { return h.score(e, now) }

// Add enqueues a request, creating the item's entry if needed, and re-scores
// the entry. Adding a request can only increase the entry's score, so a
// sift-up restores heap order.
//
//qos:hotpath
func (h *Heap) Add(req Request, length float64) {
	e := h.byItem.get(req.Item)
	if e == nil {
		e = reuse(&h.free, req, length, len(h.heap))
		h.byItem.set(req.Item, e)
		//lint:allow hotalloc amortized: the heap backing array grows to the distinct-item working set once
		h.heap = append(h.heap, e)
	}
	//lint:allow hotalloc amortized: recycled entries keep request-slice capacity, so growth stops at the per-item burst size
	e.Requests = append(e.Requests, req)
	e.SumPriority += req.Priority
	if req.Arrival < e.FirstArrival {
		e.FirstArrival = req.Arrival
	}
	h.requests++
	switch {
	case h.ttl <= 0:
		e.key = h.score(e, 0)
	case !e.expired:
		e.key = -(e.FirstArrival + h.ttl)
	}
	h.siftUp(e.heapIndex)
}

// demote settles a deadline heap's top at time now: while the top entry's
// deadline has passed and it is not yet demoted, its key drops to −Inf for
// good and it sinks. Afterwards the top's key is its score at now, and no
// other entry scores above it: a live key only overstates an expired
// entry's score. Without a TTL there is nothing to demote.
//
//qos:hotpath
func (h *Heap) demote(now float64) {
	if h.ttl <= 0 {
		return
	}
	for len(h.heap) > 0 {
		top := h.heap[0]
		// −key is the deadline FirstArrival+ttl: negation is exact.
		if top.expired || !(now > -top.key) {
			return
		}
		top.expired = true
		top.key = math.Inf(-1)
		h.siftDown(0)
	}
}

// less reports whether heap[i] has strictly lower selection precedence than
// heap[j]: smaller cached score, or equal score and larger rank.
//
//qos:hotpath
func (h *Heap) less(i, j int) bool {
	a, b := h.heap[i], h.heap[j]
	//lint:allow floatcmp exact equality is the documented tie-break; both keys come from the same score() evaluation
	if a.key != b.key {
		return a.key < b.key
	}
	return a.Item > b.Item
}

//qos:hotpath
func (h *Heap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.heap[i].heapIndex = i
	h.heap[j].heapIndex = j
}

//qos:hotpath
func (h *Heap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(parent, i) {
			return
		}
		h.swap(parent, i)
		i = parent
	}
}

//qos:hotpath
func (h *Heap) siftDown(i int) {
	n := len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && h.less(largest, l) {
			largest = l
		}
		if r < n && h.less(largest, r) {
			largest = r
		}
		if largest == i {
			return
		}
		h.swap(i, largest)
		i = largest
	}
}

// Peek returns the max-score entry at time now without removing it.
//
//qos:hotpath
func (h *Heap) Peek(now float64) *Entry {
	h.demote(now)
	if len(h.heap) == 0 {
		return nil
	}
	return h.heap[0]
}

// ExtractBest removes and returns the max-score entry at time now.
//
//qos:hotpath
func (h *Heap) ExtractBest(now float64) *Entry {
	h.demote(now)
	if len(h.heap) == 0 {
		return nil
	}
	top := h.heap[0]
	last := len(h.heap) - 1
	h.swap(0, last)
	h.heap[last] = nil
	h.heap = h.heap[:last]
	if last > 0 {
		h.siftDown(0)
	}
	top.heapIndex = -1
	h.byItem.clear(top.Item)
	h.requests -= len(top.Requests)
	return top
}

// Remove drops a specific item's entry (used when a blocked item's requests
// are discarded without service). Returns the removed entry or nil.
func (h *Heap) Remove(item int) *Entry {
	e := h.byItem.get(item)
	if e == nil {
		return nil
	}
	i := e.heapIndex
	last := len(h.heap) - 1
	h.swap(i, last)
	h.heap[last] = nil
	h.heap = h.heap[:last]
	if i < last {
		h.siftDown(i)
		h.siftUp(i)
	}
	e.heapIndex = -1
	h.byItem.clear(item)
	h.requests -= len(e.Requests)
	return e
}

// Recycle returns an extracted entry to the freelist for reuse by Add.
func (h *Heap) Recycle(e *Entry) { park(&h.free, h.byItem, e) }

// Drain removes every entry and returns them sorted by item rank.
func (h *Heap) Drain() []*Entry {
	out := h.heap
	h.heap = nil
	for _, e := range out {
		e.heapIndex = -1
		h.byItem.clear(e.Item)
	}
	h.requests = 0
	sort.Slice(out, func(i, j int) bool { return out[i].Item < out[j].Item })
	return out
}

// Release empties the heap and pools its entries for the next queue.
func (h *Heap) Release() {
	release(h.free, h.heap)
	*h = Heap{score: h.score, ttl: h.ttl}
}

// Linear is the O(n)-scan implementation of Queue. It re-evaluates the score
// at every extraction, so time-dependent (ageing) scores are supported; it
// also serves as the obviously-correct reference in property tests.
type Linear struct {
	score    ScoreFunc
	entries  []*Entry
	byItem   itemIndex
	requests int
	free     []*Entry
}

// NewLinear returns an empty scan-backed queue ordered by the paper's
// importance factor γ(α).
//
//lint:allow deadcode oracle: the scan-backed reference queue the heap property tests compare against
func NewLinear(alpha float64) (*Linear, error) {
	score, err := GammaScore(alpha)
	if err != nil {
		return nil, err
	}
	return NewLinearFunc(score)
}

// NewLinearFunc returns an empty scan-backed queue ordered by score, which
// may be time-dependent.
func NewLinearFunc(score ScoreFunc) (*Linear, error) {
	if score == nil {
		return nil, fmt.Errorf("pullqueue: nil score function")
	}
	return &Linear{score: score, free: pooledFree()}, nil
}

// Items returns the number of distinct queued items.
func (l *Linear) Items() int { return len(l.entries) }

// Requests returns the total pending request count.
func (l *Linear) Requests() int { return l.requests }

// Entry returns the queued entry for an item rank, or nil.
func (l *Linear) Entry(item int) *Entry { return l.byItem.get(item) }

// Score returns the entry's selection score at time now.
func (l *Linear) Score(e *Entry, now float64) float64 { return l.score(e, now) }

// Add enqueues a request.
//
//qos:hotpath
func (l *Linear) Add(req Request, length float64) {
	e := l.byItem.get(req.Item)
	if e == nil {
		e = reuse(&l.free, req, length, -1)
		l.byItem.set(req.Item, e)
		//lint:allow hotalloc amortized: the entry slice grows to the distinct-item working set once
		l.entries = append(l.entries, e)
	}
	//lint:allow hotalloc amortized: recycled entries keep request-slice capacity, so growth stops at the per-item burst size
	e.Requests = append(e.Requests, req)
	e.SumPriority += req.Priority
	if req.Arrival < e.FirstArrival {
		e.FirstArrival = req.Arrival
	}
	l.requests++
}

// argMax returns the index of the max-score entry at time now, or -1 when
// empty.
//
//qos:hotpath
func (l *Linear) argMax(now float64) int {
	best := -1
	var bestScore float64
	for i, e := range l.entries {
		s := l.score(e, now)
		//lint:allow floatcmp exact equality is the documented tie-break before falling back to the smaller item id
		if best == -1 || s > bestScore || (s == bestScore && e.Item < l.entries[best].Item) {
			best, bestScore = i, s
		}
	}
	return best
}

// Peek returns the max-score entry at time now without removing it.
//
//qos:hotpath
func (l *Linear) Peek(now float64) *Entry {
	i := l.argMax(now)
	if i < 0 {
		return nil
	}
	return l.entries[i]
}

// ExtractBest removes and returns the max-score entry at time now.
//
//qos:hotpath
func (l *Linear) ExtractBest(now float64) *Entry {
	i := l.argMax(now)
	if i < 0 {
		return nil
	}
	return l.removeAt(i)
}

// Remove drops a specific item's entry, returning it or nil.
func (l *Linear) Remove(item int) *Entry {
	e := l.byItem.get(item)
	if e == nil {
		return nil
	}
	for i, cand := range l.entries {
		if cand == e {
			return l.removeAt(i)
		}
	}
	return nil
}

//qos:hotpath
func (l *Linear) removeAt(i int) *Entry {
	e := l.entries[i]
	l.entries[i] = l.entries[len(l.entries)-1]
	l.entries[len(l.entries)-1] = nil
	l.entries = l.entries[:len(l.entries)-1]
	l.byItem.clear(e.Item)
	l.requests -= len(e.Requests)
	return e
}

// Recycle returns an extracted entry to the freelist for reuse by Add.
func (l *Linear) Recycle(e *Entry) { park(&l.free, l.byItem, e) }

// Drain removes every entry and returns them sorted by item rank.
func (l *Linear) Drain() []*Entry {
	out := l.entries
	l.entries = nil
	for _, e := range out {
		e.heapIndex = -1
		l.byItem.clear(e.Item)
	}
	l.requests = 0
	sort.Slice(out, func(i, j int) bool { return out[i].Item < out[j].Item })
	return out
}

// Release empties the queue and pools its entries for the next queue.
func (l *Linear) Release() {
	release(l.free, l.entries)
	*l = Linear{score: l.score}
}

var (
	_ Queue = (*Heap)(nil)
	_ Queue = (*Linear)(nil)
)
