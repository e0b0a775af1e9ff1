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
// position fixes are pure sift-ups) and Linear (O(n) scan re-evaluating the
// score at extraction time), which supports time-dependent ageing policies
// (RxW-style) and doubles as the obviously-correct reference in property
// tests and as an ablation baseline.
//
// Validation is front-loaded: constructors return typed errors (AlphaError),
// and core.Config.Validate audits every catalog length and class weight
// before a simulation starts. The hot Add/ExtractMax paths trust validated
// inputs and never panic.
package pullqueue

import (
	"fmt"
	"math"
	"sort"

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

	heapIndex int // position in the heap; -1 when not enqueued
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
// scores work there. Heap evaluates scores with now = 0 and requires them
// to (a) ignore now and (b) never decrease when a request is added to the
// entry; violating either silently breaks heap order.
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
	// ExtractMax removes and returns the entry with the largest score at
	// time now, or nil if the queue is empty.
	ExtractMax(now float64) *Entry
	// Peek returns the current max entry without removing it, or nil.
	Peek(now float64) *Entry
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
	// Recycle returns an entry obtained from ExtractMax or Remove to the
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
	e.heapIndex = freeIndex
	//lint:allow hotalloc amortized: the freelist grows to the steady-state entry population once, then recycles
	*free = append(*free, e)
	return true
}

// Heap is the production pull queue: an indexed binary max-heap over entries
// keyed by an injected time-independent score, with an item-rank index for
// O(1) entry lookup.
type Heap struct {
	score    ScoreFunc
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
	return &Heap{score: score}, nil
}

// Items returns the number of distinct queued items.
func (h *Heap) Items() int { return len(h.heap) }

// Requests returns the total pending request count.
func (h *Heap) Requests() int { return h.requests }

// Entry returns the queued entry for an item rank, or nil.
func (h *Heap) Entry(item int) *Entry { return h.byItem.get(item) }

// Add enqueues a request, creating the item's entry if needed. Adding a
// request can only increase the entry's score, so a sift-up restores heap
// order.
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
	h.siftUp(e.heapIndex)
}

// less reports whether heap[i] has strictly lower selection precedence than
// heap[j]: smaller score, or equal score and larger rank.
//
//qos:hotpath
func (h *Heap) less(i, j int) bool {
	si, sj := h.score(h.heap[i], 0), h.score(h.heap[j], 0)
	//lint:allow floatcmp exact equality is the documented tie-break; both scores come from the same score() evaluation
	if si != sj {
		return si < sj
	}
	return h.heap[i].Item > h.heap[j].Item
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

// Peek returns the max-score entry without removing it.
//
//qos:hotpath
func (h *Heap) Peek(_ float64) *Entry {
	if len(h.heap) == 0 {
		return nil
	}
	return h.heap[0]
}

// ExtractMax removes and returns the max-score entry.
//
//qos:hotpath
func (h *Heap) ExtractMax(_ float64) *Entry {
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
	return &Linear{score: score}, nil
}

// Items returns the number of distinct queued items.
func (l *Linear) Items() int { return len(l.entries) }

// Requests returns the total pending request count.
func (l *Linear) Requests() int { return l.requests }

// Entry returns the queued entry for an item rank, or nil.
func (l *Linear) Entry(item int) *Entry { return l.byItem.get(item) }

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

// ExtractMax removes and returns the max-score entry at time now.
//
//qos:hotpath
func (l *Linear) ExtractMax(now float64) *Entry {
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

var (
	_ Queue = (*Heap)(nil)
	_ Queue = (*Linear)(nil)
)
