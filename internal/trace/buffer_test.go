package trace

import (
	"fmt"
	"slices"
	"sync"
	"testing"

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

// TestBufferReusesBlocks: a Buffer recording after another one flushed
// may fill that Buffer's blocks, and neither stream shows through the
// other: the first Events stays as recorded, and the second holds only its
// own events although the blocks it reuses still carry the first's. The
// pools hold one block size per doubling from minBlockEvents to
// maxBlockEvents.
func TestBufferReusesBlocks(t *testing.T) {
	if minBlockEvents<<(len(blockPools)-1) != maxBlockEvents {
		t.Fatalf("%d block pools for capacities %d..%d", len(blockPools), minBlockEvents, maxBlockEvents)
	}
	for _, n1 := range []int{minBlockEvents - 14, 3 * maxBlockEvents} {
		for _, n2 := range []int{minBlockEvents - 14, 1000, 3 * maxBlockEvents} {
			first := &Buffer{}
			want1 := bufferStream(n1)
			for _, e := range want1 {
				first.Event(e)
			}
			first.Flush()
			want2 := make([]Event, n2)
			for i := range want2 {
				want2[i] = Event{T: float64(-i), Kind: KindServed, Item: i + 1, Class: 2}
			}
			for range 2 {
				second := &Buffer{}
				for _, e := range want2 {
					second.Event(e)
				}
				second.Flush()
				checkEvents(t, second.Events, want2)
				checkEvents(t, first.Events, want1)
			}
		}
	}
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
