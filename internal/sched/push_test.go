package sched

import (
	"math"
	"testing"

	"hybridqos/internal/catalog"
)

func testCat(t *testing.T, d int, theta float64) *catalog.Catalog {
	t.Helper()
	cfg := catalog.Config{D: d, Theta: theta, MinLen: 1, MaxLen: 5, Seed: 42}
	c, err := catalog.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFlatRoundRobinCycles(t *testing.T) {
	f := NewFlatRoundRobin(3)
	want := []int{1, 2, 3, 1, 2, 3, 1}
	for i, w := range want {
		if got := f.Next(); got != w {
			t.Fatalf("step %d: got %d want %d", i, got, w)
		}
	}
	if f.Name() != "flat" {
		t.Fatalf("Name = %q", f.Name())
	}
}

func TestFlatSingleItem(t *testing.T) {
	f := NewFlatRoundRobin(1)
	for i := 0; i < 5; i++ {
		if got := f.Next(); got != 1 {
			t.Fatalf("K=1 Next = %d", got)
		}
	}
}

func TestFlatEmptyPanics(t *testing.T) {
	f := NewFlatRoundRobin(0)
	defer func() {
		if recover() == nil {
			t.Fatal("Next on K=0 did not panic")
		}
	}()
	f.Next()
}

func TestFlatNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewFlatRoundRobin(-1) did not panic")
		}
	}()
	NewFlatRoundRobin(-1)
}

func TestFlatEveryItemOncePerCycle(t *testing.T) {
	const k = 17
	f := NewFlatRoundRobin(k)
	seen := map[int]int{}
	for i := 0; i < k; i++ {
		seen[f.Next()]++
	}
	for rank := 1; rank <= k; rank++ {
		if seen[rank] != 1 {
			t.Fatalf("rank %d appeared %d times in one cycle", rank, seen[rank])
		}
	}
}

func TestBroadcastDiskErrors(t *testing.T) {
	cat := testCat(t, 20, 0.8)
	if _, err := NewBroadcastDisk(nil, 5, 2); err == nil {
		t.Fatal("nil catalog accepted")
	}
	if _, err := NewBroadcastDisk(cat, 0, 2); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewBroadcastDisk(cat, 21, 2); err == nil {
		t.Fatal("k>D accepted")
	}
	if _, err := NewBroadcastDisk(cat, 5, 0); err == nil {
		t.Fatal("numDisks=0 accepted")
	}
}

func TestBroadcastDiskCoversAllItems(t *testing.T) {
	cat := testCat(t, 30, 1.0)
	bd, err := NewBroadcastDisk(cat, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i := 0; i < len(bd.program); i++ {
		item := bd.Next()
		if item < 1 || item > 12 {
			t.Fatalf("item %d outside push set", item)
		}
		seen[item] = true
	}
	for rank := 1; rank <= 12; rank++ {
		if !seen[rank] {
			t.Fatalf("rank %d never broadcast in a major cycle", rank)
		}
	}
}

func TestBroadcastDiskHotterMoreFrequent(t *testing.T) {
	cat := testCat(t, 30, 1.0)
	bd, err := NewBroadcastDisk(cat, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for i := 0; i < len(bd.program); i++ {
		counts[bd.Next()]++
	}
	// Rank 1 is on the hottest disk (freq 3), rank 12 on the coldest
	// (freq 1): rank 1 must appear strictly more often per major cycle.
	if counts[1] <= counts[12] {
		t.Fatalf("hot item count %d not above cold item count %d", counts[1], counts[12])
	}
}

func TestBroadcastDiskMoreDisksThanItems(t *testing.T) {
	cat := testCat(t, 10, 0.5)
	bd, err := NewBroadcastDisk(cat, 2, 5) // clamps to 2 disks
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i := 0; i < len(bd.program); i++ {
		seen[bd.Next()] = true
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("items missing from program: %v", seen)
	}
}

func TestBroadcastDiskSingleDiskIsFlatLike(t *testing.T) {
	cat := testCat(t, 10, 0.5)
	bd, err := NewBroadcastDisk(cat, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(bd.program) != 4 {
		t.Fatalf("single-disk program length %d, want 4", len(bd.program))
	}
	for want := 1; want <= 4; want++ {
		if got := bd.Next(); got != want {
			t.Fatalf("single-disk order broken: got %d want %d", got, want)
		}
	}
}

func TestSquareRootRuleErrors(t *testing.T) {
	cat := testCat(t, 10, 0.5)
	if _, err := NewSquareRootRule(nil, 3); err == nil {
		t.Fatal("nil catalog accepted")
	}
	if _, err := NewSquareRootRule(cat, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewSquareRootRule(cat, 11); err == nil {
		t.Fatal("k>D accepted")
	}
}

func TestSquareRootRuleBroadcastsEverything(t *testing.T) {
	cat := testCat(t, 40, 1.0)
	s, err := NewSquareRootRule(cat, 20)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	for i := 0; i < 2000; i++ {
		item := s.Next()
		if item < 1 || item > 20 {
			t.Fatalf("item %d outside push set", item)
		}
		seen[item]++
	}
	for rank := 1; rank <= 20; rank++ {
		if seen[rank] == 0 {
			t.Fatalf("rank %d starved by square-root rule", rank)
		}
	}
}

func TestSquareRootRuleFrequencyProportion(t *testing.T) {
	// Uniform lengths: frequency of item i should scale ≈ sqrt(P_i).
	cfg := catalog.Config{D: 10, Theta: 1.0, MinLen: 2, MaxLen: 2, Seed: 1}
	cat, err := catalog.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSquareRootRule(cat, 10)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]float64, 11)
	const slots = 20000
	for i := 0; i < slots; i++ {
		counts[s.Next()]++
	}
	// Compare frequency ratios of rank 1 vs rank 9 against sqrt(P1/P9);
	// rank 10 avoided in case of boundary effects.
	gotRatio := counts[1] / counts[9]
	wantRatio := math.Sqrt(cat.Prob(1) / cat.Prob(9))
	if math.Abs(gotRatio-wantRatio)/wantRatio > 0.25 {
		t.Fatalf("frequency ratio %g, want ~sqrt ratio %g", gotRatio, wantRatio)
	}
}

func TestSquareRootRulePrefersShortItems(t *testing.T) {
	// Equal probabilities, lengths {1,4,4}: spacing ∝ sqrt(L) so the short
	// item must be broadcast more often than either long one. (Two items
	// alone cannot test this — the greedy rule degenerates to alternation.)
	cat, err := catalog.FromLengths([]float64{1, 4, 4}, 0) // θ=0: equal probs
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSquareRootRule(cat, 3)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for i := 0; i < 3000; i++ {
		counts[s.Next()]++
	}
	if counts[1] <= counts[2] || counts[1] <= counts[3] {
		t.Fatalf("short item broadcast %d times vs long %d/%d", counts[1], counts[2], counts[3])
	}
}

func TestFlatRoundRobinPartition(t *testing.T) {
	if _, err := NewFlatRoundRobinPartition(nil); err == nil {
		t.Fatal("empty partition accepted")
	}
	if _, err := NewFlatRoundRobinPartition([]int{3, 0}); err == nil {
		t.Fatal("invalid rank accepted")
	}
	p, err := NewFlatRoundRobinPartition([]int{2, 5, 8})
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 3 || p.Name() == "" {
		t.Fatalf("Size=%d Name=%q", p.Size(), p.Name())
	}
	want := []int{2, 5, 8, 2, 5, 8, 2}
	for i, w := range want {
		if got := p.Next(); got != w {
			t.Fatalf("step %d: got %d want %d", i, got, w)
		}
	}
	// The source slice must have been copied.
	ranks := []int{1, 2}
	p2, _ := NewFlatRoundRobinPartition(ranks)
	ranks[0] = 99
	if got := p2.Next(); got != 1 {
		t.Fatalf("partition aliased caller slice: got %d", got)
	}
}

func TestPushSchedulerNames(t *testing.T) {
	cat := testCat(t, 20, 0.8)
	bd, err := NewBroadcastDisk(cat, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	srr, err := NewSquareRootRule(cat, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []PushScheduler{bd, srr, NewFlatRoundRobin(5)} {
		if s.Name() == "" {
			t.Fatal("empty scheduler name")
		}
	}
}
