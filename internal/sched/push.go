// Package sched provides the scheduling building blocks of the hybrid
// server: push-side broadcast schedulers (the paper's flat round-robin plus
// the broadcast-disk and square-root-rule baselines from the literature it
// cites) and pull-side selection policies (the paper's importance factor
// plus FCFS, MRF, RxW and stretch baselines).
package sched

import (
	"fmt"
	"math"

	"hybridqos/internal/catalog"
)

// PushScheduler yields the next item rank to broadcast from the push set
// {1..K}. Implementations are deterministic state machines.
type PushScheduler interface {
	// Next returns the rank of the next item to broadcast. It panics if the
	// push set is empty (the server must not consult a scheduler for K=0).
	Next() int
	// Name identifies the scheduler in reports.
	Name() string
}

// FlatRoundRobin is the paper's push scheduler: a cyclic broadcast of items
// 1..K in rank order, every item exactly once per cycle.
type FlatRoundRobin struct {
	k    int
	next int
}

// NewFlatRoundRobin returns a flat scheduler over ranks 1..k.
func NewFlatRoundRobin(k int) *FlatRoundRobin {
	if k < 0 {
		panic(fmt.Sprintf("sched: negative push set size %d", k))
	}
	return &FlatRoundRobin{k: k}
}

// Name implements PushScheduler.
func (f *FlatRoundRobin) Name() string { return "flat" }

// Next implements PushScheduler.
//
//qos:hotpath
func (f *FlatRoundRobin) Next() int {
	if f.k == 0 {
		panic("sched: Next on empty push set")
	}
	f.next = f.next%f.k + 1
	return f.next
}

// BroadcastDisk implements Acharya et al.'s broadcast-disk program over the
// push set: items are partitioned into disks by popularity band, each disk d
// spins at a relative frequency; the flat major cycle is replaced by an
// interleaved program in which hot items recur more often.
type BroadcastDisk struct {
	program []int
	pos     int
}

// NewBroadcastDisk builds a disk program for ranks 1..k of the catalog.
// numDisks disks receive contiguous popularity bands of (roughly) equal item
// count; disk d (0-based, hottest first) has relative frequency
// numDisks − d. The program is the standard chunk-interleaved major cycle.
func NewBroadcastDisk(cat *catalog.Catalog, k, numDisks int) (*BroadcastDisk, error) {
	if cat == nil {
		return nil, fmt.Errorf("sched: nil catalog")
	}
	if k < 1 || k > cat.D() {
		return nil, fmt.Errorf("sched: push size %d out of [1,%d]", k, cat.D())
	}
	if numDisks < 1 {
		return nil, fmt.Errorf("sched: numDisks %d", numDisks)
	}
	if numDisks > k {
		numDisks = k
	}
	// Partition ranks 1..k into numDisks contiguous bands.
	disks := make([][]int, numDisks)
	per := k / numDisks
	extra := k % numDisks
	rank := 1
	for d := 0; d < numDisks; d++ {
		n := per
		if d < extra {
			n++
		}
		for j := 0; j < n; j++ {
			disks[d] = append(disks[d], rank)
			rank++
		}
	}
	// Relative frequencies: disk d spins numDisks−d times per major cycle.
	freqs := make([]int, numDisks)
	for d := range freqs {
		freqs[d] = numDisks - d
	}
	// Chunking: disk d is split into numChunks(d) = L/freq(d) chunks where
	// L = lcm of frequencies; minor cycle m broadcasts chunk (m mod
	// numChunks(d)) of every disk.
	l := 1
	for _, f := range freqs {
		l = lcm(l, f)
	}
	program := make([]int, 0, k*2)
	for minor := 0; minor < l; minor++ {
		for d := 0; d < numDisks; d++ {
			numChunks := l / freqs[d]
			chunk := minor % numChunks
			// Chunk boundaries over disks[d].
			size := len(disks[d])
			lo := chunk * size / numChunks
			hi := (chunk + 1) * size / numChunks
			program = append(program, disks[d][lo:hi]...)
		}
	}
	if len(program) == 0 {
		return nil, fmt.Errorf("sched: empty broadcast-disk program")
	}
	return &BroadcastDisk{program: program}, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int { return a / gcd(a, b) * b }

// Name implements PushScheduler.
func (b *BroadcastDisk) Name() string { return "broadcast-disk" }

// Next implements PushScheduler.
//
//qos:hotpath
func (b *BroadcastDisk) Next() int {
	item := b.program[b.pos]
	b.pos = (b.pos + 1) % len(b.program)
	return item
}

// SquareRootRule implements the Hameed–Vaidya online scheduler: at each slot
// broadcast the item maximising (t − lastBroadcast_i)²·P_i/L_i, which
// asymptotically spaces item i's replicas ∝ sqrt(L_i/P_i) — the optimal
// square-root-rule schedule for heterogeneous lengths.
type SquareRootRule struct {
	prob   []float64 // index 0 = rank 1
	length []float64
	last   []float64
	clock  float64
}

// NewSquareRootRule builds the scheduler over ranks 1..k of the catalog.
func NewSquareRootRule(cat *catalog.Catalog, k int) (*SquareRootRule, error) {
	if cat == nil {
		return nil, fmt.Errorf("sched: nil catalog")
	}
	if k < 1 || k > cat.D() {
		return nil, fmt.Errorf("sched: push size %d out of [1,%d]", k, cat.D())
	}
	s := &SquareRootRule{
		prob:   make([]float64, k),
		length: make([]float64, k),
		last:   make([]float64, k),
	}
	for i := 0; i < k; i++ {
		s.prob[i] = cat.Prob(i + 1)
		s.length[i] = cat.Length(i + 1)
		s.last[i] = -s.length[i] // pretend each was just broadcast once
	}
	return s, nil
}

// Name implements PushScheduler.
func (s *SquareRootRule) Name() string { return "square-root-rule" }

// Next implements PushScheduler.
//
//qos:hotpath
func (s *SquareRootRule) Next() int {
	best, bestScore := 0, math.Inf(-1)
	for i := range s.prob {
		gap := s.clock - s.last[i]
		score := gap * gap * s.prob[i] / s.length[i]
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	s.last[best] = s.clock
	s.clock += s.length[best]
	return best + 1
}

// NoPush is the pure-pull degenerate: no broadcast channel at all. The
// engine recognises it and routes every request — whatever its rank —
// through the pull queue, exactly as if the cutoff were 0. Next must never
// be consulted.
type NoPush struct{}

// Name implements PushScheduler.
func (NoPush) Name() string { return "none" }

// Next implements PushScheduler. It always panics: a server configured with
// NoPush treats the push set as empty and never asks for a push item.
func (NoPush) Next() int {
	panic("sched: Next on no-push scheduler")
}

// FlatRoundRobinPartition cycles an arbitrary list of item ranks — one
// partition of a push set split across multiple broadcast channels.
type FlatRoundRobinPartition struct {
	ranks []int
	next  int
}

// NewFlatRoundRobinPartition validates the rank list (non-empty, positive
// ranks) and returns the partition scheduler.
func NewFlatRoundRobinPartition(ranks []int) (*FlatRoundRobinPartition, error) {
	if len(ranks) == 0 {
		return nil, fmt.Errorf("sched: empty partition")
	}
	for _, r := range ranks {
		if r < 1 {
			return nil, fmt.Errorf("sched: invalid rank %d in partition", r)
		}
	}
	return &FlatRoundRobinPartition{ranks: append([]int(nil), ranks...)}, nil
}

// Name implements PushScheduler.
func (f *FlatRoundRobinPartition) Name() string { return "flat-partition" }

// Next implements PushScheduler.
//
//qos:hotpath
func (f *FlatRoundRobinPartition) Next() int {
	item := f.ranks[f.next]
	f.next = (f.next + 1) % len(f.ranks)
	return item
}

// Size returns the number of items in the partition.
func (f *FlatRoundRobinPartition) Size() int { return len(f.ranks) }
