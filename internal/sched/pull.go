package sched

import (
	"fmt"
	"math"

	"hybridqos/internal/pullqueue"
)

// PullPolicy selects which queued pull item to transmit next. now is the
// current simulated time (RxW-style policies age entries).
//
// Scoring contract: the highest score wins, ties broken by lowest item rank.
// Policies whose TimeDependent() is false must ignore now and must never
// return a lower score for an entry after a request is added to it — that
// monotonicity is what lets the selector back them with a sift-up-only heap.
// All scoring is expressed through pullqueue.Entry's canonical derived
// quantities (Stretch, Gamma, SumPriority, FirstArrival) so policy scores
// and queue ordering can never drift apart.
type PullPolicy interface {
	// Name identifies the policy in reports.
	Name() string
	// Score returns the selection score of an entry; the highest score wins,
	// ties broken by lowest item rank.
	Score(e *pullqueue.Entry, now float64) float64
	// TimeDependent reports whether scores change as time passes with no
	// queue mutation (true for RxW-style ageing policies). Time-independent
	// monotone policies admit heap-backed selection.
	TimeDependent() bool
}

// ImportanceFactor is the paper's policy: γ_i = α·S_i + (1−α)·Q_i (Eq. 1).
type ImportanceFactor struct {
	// Alpha is the stretch/priority mixing fraction in [0,1].
	Alpha float64
}

// NewImportanceFactor validates α and returns the paper's policy. The error
// is pullqueue's typed *AlphaError, so callers can surface it unchanged.
func NewImportanceFactor(alpha float64) (ImportanceFactor, error) {
	if err := pullqueue.ValidateAlpha(alpha); err != nil {
		return ImportanceFactor{}, err
	}
	return ImportanceFactor{Alpha: alpha}, nil
}

// Name implements PullPolicy.
func (p ImportanceFactor) Name() string { return fmt.Sprintf("importance-factor(α=%.2f)", p.Alpha) }

// Score implements PullPolicy.
//
//qos:hotpath
func (p ImportanceFactor) Score(e *pullqueue.Entry, _ float64) float64 { return e.Gamma(p.Alpha) }

// TimeDependent implements PullPolicy.
func (p ImportanceFactor) TimeDependent() bool { return false }

// StretchOptimal is the α = 1 special case (the authors' WMAN'04 scheduler):
// max-request min-service-time first, S_i = R_i/L_i².
type StretchOptimal struct{}

// Name implements PullPolicy.
func (StretchOptimal) Name() string { return "stretch-optimal" }

// Score implements PullPolicy.
//
//qos:hotpath
func (StretchOptimal) Score(e *pullqueue.Entry, _ float64) float64 { return e.Stretch() }

// TimeDependent implements PullPolicy.
func (StretchOptimal) TimeDependent() bool { return false }

// PriorityOnly is the α = 0 special case: highest summed client priority
// first.
type PriorityOnly struct{}

// Name implements PullPolicy.
func (PriorityOnly) Name() string { return "priority-only" }

// Score implements PullPolicy.
//
//qos:hotpath
func (PriorityOnly) Score(e *pullqueue.Entry, _ float64) float64 { return e.SumPriority }

// TimeDependent implements PullPolicy.
func (PriorityOnly) TimeDependent() bool { return false }

// FCFS serves the item whose oldest pending request arrived first.
type FCFS struct{}

// Name implements PullPolicy.
func (FCFS) Name() string { return "fcfs" }

// Score implements PullPolicy.
//
//qos:hotpath
func (FCFS) Score(e *pullqueue.Entry, _ float64) float64 { return -e.FirstArrival }

// TimeDependent implements PullPolicy.
func (FCFS) TimeDependent() bool { return false }

// MRF is most-requests-first.
type MRF struct{}

// Name implements PullPolicy.
func (MRF) Name() string { return "mrf" }

// Score implements PullPolicy.
//
//qos:hotpath
func (MRF) Score(e *pullqueue.Entry, _ float64) float64 { return float64(e.NumRequests()) }

// TimeDependent implements PullPolicy.
func (MRF) TimeDependent() bool { return false }

// RxW is Aksoy–Franklin's on-demand broadcast policy: requests × wait of the
// oldest pending request.
type RxW struct{}

// Name implements PullPolicy.
func (RxW) Name() string { return "rxw" }

// Score implements PullPolicy.
//
//qos:hotpath
func (RxW) Score(e *pullqueue.Entry, now float64) float64 {
	return float64(e.NumRequests()) * (now - e.FirstArrival)
}

// TimeDependent implements PullPolicy.
func (RxW) TimeDependent() bool { return true }

// ClassicStretch is the traditional stretch metric R·(now−firstArrival)/L —
// ageing-normalised, unlike the paper's S = R/L². Included as a baseline.
type ClassicStretch struct{}

// Name implements PullPolicy.
func (ClassicStretch) Name() string { return "classic-stretch" }

// Score implements PullPolicy.
//
//qos:hotpath
func (ClassicStretch) Score(e *pullqueue.Entry, now float64) float64 {
	return float64(e.NumRequests()) * (now - e.FirstArrival) / e.Length
}

// TimeDependent implements PullPolicy.
func (ClassicStretch) TimeDependent() bool { return true }

// EDF is earliest-deadline-first over request TTLs: an entry's deadline is
// FirstArrival + TTL, and the entry with the earliest deadline is served
// first. Entries already past their deadline score −Inf — they are about to
// expire anyway, so live deadlines are served ahead of dead ones. With
// TTL ≤ 0 there are no deadlines and EDF degenerates to exact FCFS order
// (earliest FirstArrival first, never expired).
type EDF struct {
	// TTL is the request time-to-live defining each deadline; ≤ 0 means no
	// deadline (pure FCFS behaviour).
	TTL float64
}

// Name implements PullPolicy.
func (p EDF) Name() string {
	if p.TTL <= 0 {
		return "edf"
	}
	return fmt.Sprintf("edf(ttl=%g)", p.TTL)
}

// Score implements PullPolicy.
//
//qos:hotpath
func (p EDF) Score(e *pullqueue.Entry, now float64) float64 {
	if p.TTL <= 0 {
		return -e.FirstArrival
	}
	deadline := e.FirstArrival + p.TTL
	if now > deadline {
		return math.Inf(-1)
	}
	return -deadline
}

// TimeDependent implements PullPolicy. With a finite TTL the expiry
// demotion depends on now; without one the score is a pure FCFS key.
func (p EDF) TimeDependent() bool { return p.TTL > 0 }

// NewSelector returns the fastest pull queue able to realise the policy: a
// heap over the policy's score for time-independent policies, a deadline
// heap for EDF with a TTL (its score is a fixed key until the deadline and
// −Inf for good after it), and a linear scan (re-scoring at every
// extraction) for the other time-dependent ones. The deadline heap is chosen
// on the policy's concrete type, so a wrapper that forwards only the
// PullPolicy methods gets the scan. Selection logic lives in exactly one
// place, pullqueue, and the queue's Score is the policy's.
//
// A deadline heap requires the now passed to ExtractBest and Peek to be
// non-decreasing across one queue's calls; both clocks guarantee that.
func NewSelector(p PullPolicy) (pullqueue.Queue, error) {
	if p == nil {
		return nil, fmt.Errorf("sched: nil pull policy")
	}
	if edf, ok := p.(EDF); ok && edf.TTL > 0 {
		return pullqueue.NewDeadlineHeap(edf.Score, edf.TTL)
	}
	if p.TimeDependent() {
		return pullqueue.NewLinearFunc(p.Score)
	}
	return pullqueue.NewHeapFunc(p.Score)
}
