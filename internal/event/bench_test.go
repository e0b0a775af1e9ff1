package event

import (
	"fmt"
	"testing"

	"hybridqos/internal/rng"
)

// BenchmarkQueueMix measures steady-state schedule/pop (and optionally
// cancel) cycles at several pending-event densities, for the arena heap
// (Simulator over Queue) and the retired container/heap reference. The
// pending count is held constant: each iteration pops the earliest event
// and schedules a replacement a uniform random gap ahead, so the time-axis
// density matches the event count. cancel=1of4 replaces every fourth op with a cancel of a
// random outstanding token followed by a reschedule.
func BenchmarkQueueMix(b *testing.B) {
	for _, pending := range []int{8, 32, 64, 1024, 16384} {
		for _, cancelEvery := range []int{0, 4} {
			mix := "hold"
			if cancelEvery > 0 {
				mix = "1of4"
			}
			spread := float64(pending) // mean pop gap ~1 at every density
			b.Run(fmt.Sprintf("impl=arena/pending=%d/cancel=%s", pending, mix), func(b *testing.B) {
				s := New()
				r := rng.New(7)
				h := func() {}
				toks := make([]Token, pending)
				for i := range toks {
					toks[i] = s.At(r.Float64()*spread, h)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if cancelEvery > 0 && i%cancelEvery == 0 {
						j := int(r.Uint64() % uint64(pending))
						if s.Cancel(toks[j]) {
							toks[j] = s.At(s.Now()+r.Float64()*spread, h)
							continue
						}
					}
					s.step()
					toks[i%pending] = s.At(s.Now()+r.Float64()*spread, h)
				}
			})
			b.Run(fmt.Sprintf("impl=heap/pending=%d/cancel=%s", pending, mix), func(b *testing.B) {
				s := newRefSim()
				r := rng.New(7)
				h := func() {}
				toks := make([]refToken, pending)
				for i := range toks {
					toks[i] = s.At(r.Float64()*spread, h)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if cancelEvery > 0 && i%cancelEvery == 0 {
						j := int(r.Uint64() % uint64(pending))
						if s.Cancel(toks[j]) {
							toks[j] = s.At(s.now+r.Float64()*spread, h)
							continue
						}
					}
					s.step()
					toks[i%pending] = s.At(s.now+r.Float64()*spread, h)
				}
			})
		}
	}
}

// BenchmarkArrivalChain times one occurrence of a self-rebooking chain with
// exponential gaps (mean 0.2, the paper's λ=5) beside one competing timer
// that rebooks itself every unit, the shape of core.Run's arrival chain and
// broadcast slot. via=at books every occurrence through At; via=tryadvance
// tries TryAdvance first and books only when the timer fires in between.
func BenchmarkArrivalChain(b *testing.B) {
	for _, inPlace := range []bool{false, true} {
		via := "at"
		if inPlace {
			via = "tryadvance"
		}
		b.Run("via="+via, func(b *testing.B) {
			s := New()
			r := rng.New(7)
			left := b.N
			var arrival, slot Handler
			arrival = func() {
				for left--; left > 0; left-- {
					t := s.Now() + r.Exp(5)
					if !inPlace || !s.TryAdvance(t) {
						s.At(t, arrival)
						return
					}
				}
			}
			slot = func() {
				if left > 0 {
					s.At(s.Now()+1, slot)
				}
			}
			s.At(0, arrival)
			s.At(1, slot)
			b.ResetTimer()
			s.Run()
		})
	}
}
