package event

import "container/heap"

// refSim is the retired container/heap scheduler, preserved verbatim as the
// reference implementation for the differential test and the QueueMix
// benchmark. Its pop order — ascending (time, seq) — is the contract Queue
// and Simulator must reproduce bit-identically. It checks no causality, so
// it also models the wall clock's acausal pushes.
type refSim struct {
	now     float64
	queue   refHeap
	nextSeq uint64
}

type refEvent struct {
	time    float64
	seq     uint64
	handler Handler
	index   int
}

type refToken struct{ ev *refEvent }

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }

func (h refHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}

func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *refHeap) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

func newRefSim() *refSim { return &refSim{} }

func (s *refSim) At(t float64, h Handler) refToken {
	ev := &refEvent{time: t, seq: s.nextSeq, handler: h}
	s.nextSeq++
	heap.Push(&s.queue, ev)
	return refToken{ev: ev}
}

func (s *refSim) Cancel(tok refToken) bool {
	if tok.ev == nil || tok.ev.index < 0 {
		return false
	}
	heap.Remove(&s.queue, tok.ev.index)
	tok.ev.index = -1
	return true
}

func (s *refSim) Pending() int { return len(s.queue) }

// step pops and fires the earliest event, returning false when drained.
func (s *refSim) step() bool {
	if len(s.queue) == 0 {
		return false
	}
	ev := heap.Pop(&s.queue).(*refEvent)
	s.now = ev.time
	h := ev.handler
	ev.handler = nil
	h()
	return true
}

func (s *refSim) run() {
	for s.step() {
	}
}
