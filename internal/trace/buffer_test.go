package trace

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"hybridqos/internal/telemetry"
)

// bufferLengths returns the stream lengths TestBufferFlush records: the
// empty and one-event streams, both sides of the first block, every
// block-capacity boundary ±1 up to two maximal blocks past the last
// doubling, and a few thousand events.
func bufferLengths() []int {
	lengths := []int{0, 1, minBlockEvents - 1, minBlockEvents, minBlockEvents + 1, 5000}
	var sizes []int
	for size := minBlockEvents; size < maxBlockEvents; size *= 2 {
		sizes = append(sizes, size)
	}
	total := 0
	for _, size := range append(sizes, maxBlockEvents, maxBlockEvents) {
		total += size
		lengths = append(lengths, total-1, total, total+1)
	}
	return lengths
}

// bufferStream returns n distinct events; every seventh carries its own
// snapshot, so a copied or dropped Snap pointer shows.
func bufferStream(n int) []Event {
	events := make([]Event, n)
	for i := range events {
		events[i] = Event{T: float64(i), Kind: KindArrival, Item: i + 1, Class: 1}
		if i%7 == 3 {
			events[i].Kind, events[i].Snap = KindSnapshot, &telemetry.Snapshot{T: float64(i)}
		}
	}
	return events
}

// TestBufferFlush: Event×n then Flush yields exactly the recorded stream,
// Snap pointers included, whether Flush runs once at the end, every k
// events mid-stream, or twice in a row.
func TestBufferFlush(t *testing.T) {
	for _, n := range bufferLengths() {
		want := bufferStream(n)
		for _, every := range []int{0, 1, 63, 100, maxBlockEvents + 1} {
			for _, twice := range []bool{false, true} {
				t.Run(fmt.Sprintf("n=%d/flush-every=%d/twice=%v", n, every, twice), func(t *testing.T) {
					buf := &Buffer{}
					flush := func() {
						buf.Flush()
						if twice {
							buf.Flush()
						}
					}
					for i, e := range want {
						buf.Event(e)
						if every > 0 && (i+1)%every == 0 {
							flush()
						}
					}
					flush()
					checkEvents(t, buf.Events, want)
					if every == 0 && cap(buf.Events) != n {
						t.Errorf("one Flush of %d events left cap %d, want an exactly sized Events", n, cap(buf.Events))
					}
				})
			}
		}
	}
}

// poolDropsPuts is set under the race detector (race_test.go), which drops
// sync.Pool puts at random.
var poolDropsPuts bool

// record returns a flushed Buffer holding events.
func record(events []Event) *Buffer {
	buf := &Buffer{}
	for _, e := range events {
		buf.Event(e)
	}
	buf.Flush()
	return buf
}

// servedStream returns n events unlike bufferStream's, so a block that
// still shows another stream's events is caught.
func servedStream(n int) []Event {
	events := make([]Event, n)
	for i := range events {
		events[i] = Event{T: float64(-i), Kind: KindServed, Item: i + 1, Class: 2}
	}
	return events
}

// sameBlock reports whether two blocks share their backing array.
func sameBlock(a, b []Event) bool { return &a[:1][0] == &b[:1][0] }

// TestBufferReusesBlocks: a Buffer that records into the chain another one
// flushed fills that chain's blocks in order, and neither stream shows
// through the other: the first Events stays as recorded, and the second
// holds only its own events although the blocks it reuses still carry the
// first's. The chain may come from a shorter recording, which the second
// extends past its end, or from a longer one, whose unused remainder it
// keeps; a Buffer may also take back its own chain after a mid-recording
// Flush. Chains are handed over directly, as the pool hands them, so each
// case reuses a chain whatever the collector or the race detector does;
// the pool itself is exercised by the buffers recorded after them.
func TestBufferReusesBlocks(t *testing.T) {
	lengths := []int{minBlockEvents - 14, 1000, 3 * maxBlockEvents}
	for _, n1 := range lengths {
		for _, n2 := range lengths {
			t.Run(fmt.Sprintf("%d-then-%d", n1, n2), func(t *testing.T) {
				want1 := bufferStream(n1)
				first := &Buffer{}
				for _, e := range want1 {
					first.Event(e)
				}
				c := first.detach()
				had := slices.Clone(c.blocks)
				want2 := servedStream(n2)
				second := &Buffer{chain: c}
				for _, e := range want2 {
					second.Event(e)
				}
				used := second.used
				if second.detach() != c {
					t.Fatal("the flush detached another chain")
				}
				for i := range min(len(had), used) {
					if !sameBlock(c.blocks[i], had[i]) {
						t.Fatalf("block %d of the chain was replaced", i)
					}
				}
				if len(c.blocks) != max(len(had), used) {
					t.Fatalf("chain holds %d blocks after recording into %d of it, had %d", len(c.blocks), used, len(had))
				}
				chains.Put(c)
				checkEvents(t, second.Events, want2)
				checkEvents(t, first.Events, want1)
				for range 2 {
					checkEvents(t, record(want2).Events, want2)
					checkEvents(t, first.Events, want1)
				}
			})
		}
	}
	for _, k := range []int{minBlockEvents - 14, 1000, 2 * maxBlockEvents} {
		t.Run(fmt.Sprintf("own-chain-after-flush-at-%d", k), func(t *testing.T) {
			want := bufferStream(3 * maxBlockEvents)
			buf := &Buffer{}
			for _, e := range want[:k] {
				buf.Event(e)
			}
			c := buf.detach()
			head := c.blocks[0]
			buf.chain = c
			for _, e := range want[k:] {
				buf.Event(e)
			}
			if !sameBlock(c.blocks[0], head) {
				t.Fatal("the chain's first block was replaced")
			}
			buf.Flush()
			checkEvents(t, buf.Events, want)
		})
	}
}

// TestBufferChainSurvivesCollections: a recording takes its chain whole at
// its first event, so collections during the recording cannot drop the
// blocks it has yet to fill. A Buffer that records as long a stream as the
// last flushed one, with two collections after its first event and one
// midway, allocates less than one minimal block before its Flush. With a
// pool per block size, those collections emptied the pools of every block
// but the first.
func TestBufferChainSurvivesCollections(t *testing.T) {
	if poolDropsPuts {
		t.Skip("the race detector drops sync.Pool puts at random")
	}
	// One P, so the pooled chain sits where this goroutine looks for it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	n := 5 * maxBlockEvents
	for size := minBlockEvents; size < maxBlockEvents; size *= 2 {
		n += size
	}
	want := bufferStream(n)
	record(want)
	runtime.GC()
	buf := &Buffer{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, e := range want {
		buf.Event(e)
		switch i {
		case 0:
			runtime.GC()
			runtime.GC()
		case n / 2:
			runtime.GC()
		}
	}
	runtime.ReadMemStats(&after)
	block := uint64(minBlockEvents) * uint64(unsafe.Sizeof(Event{}))
	if grown := after.TotalAlloc - before.TotalAlloc; grown >= block {
		t.Errorf("recording %d events after a flushed recording of as many allocated %d B, want under one %d B block", n, grown, block)
	}
	buf.Flush()
	checkEvents(t, buf.Events, want)
}

// TestBuffersShareBlocksConcurrently: buffers on several goroutines, as a
// cluster's cells record, take blocks from and return them to the pools at
// once, and each still holds exactly its own stream.
func TestBuffersShareBlocksConcurrently(t *testing.T) {
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range 20 {
				want := make([]Event, 500+round*300)
				for i := range want {
					want[i] = Event{T: float64(i), Kind: KindArrival, Item: i + 1, Class: 1, Cell: int32(g)}
				}
				buf := &Buffer{}
				for _, e := range want {
					buf.Event(e)
				}
				buf.Flush()
				if !slices.Equal(buf.Events, want) {
					t.Errorf("goroutine %d round %d: Events differ from the recorded stream", g, round)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestBufferFlushKeepsEvents: events set on Events before recording stay
// ahead of the recorded ones, and a Flush with nothing recorded leaves
// Events alone.
func TestBufferFlushKeepsEvents(t *testing.T) {
	all := bufferStream(300)
	buf := &Buffer{Events: append([]Event(nil), all[:10]...)}
	buf.Flush()
	checkEvents(t, buf.Events, all[:10])
	for _, e := range all[10:] {
		buf.Event(e)
	}
	checkEvents(t, buf.Events, all[:10])
	buf.Flush()
	checkEvents(t, buf.Events, all)

	empty := &Buffer{}
	empty.Flush()
	if empty.Events != nil {
		t.Errorf("Flush of an empty Buffer set Events to %v", empty.Events)
	}
}

// checkEvents compares two streams by value; Snap compares as a pointer.
func checkEvents(t *testing.T, got, want []Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestBufferRunEnd: the KindRunEnd mark, forwarded through a Tag, flushes
// the Buffer behind it and is not recorded.
func TestBufferRunEnd(t *testing.T) {
	in := bufferStream(300)
	buf := &Buffer{}
	tag := Tag{Cell: 2, Next: buf}
	for _, e := range in {
		tag.Event(e)
	}
	tag.Event(Event{T: 300, Kind: KindRunEnd, Class: -1})
	want := make([]Event, len(in))
	for i, e := range in {
		e.Cell = 2
		want[i] = e
	}
	checkEvents(t, buf.Events, want)
}
