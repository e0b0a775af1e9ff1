package main

import (
	"math"
	"time"
)

// The calibration kernel: a fixed piece of work, independent of the code
// under test, timed beside every replication so the cells can report their
// time at the machine's calm speed.
//
// On a shared 2-vCPU VM the cells' wall time steps between a fast and a slow
// phase that last from under a second to minutes, set by other tenants of
// the host: paper-cell ran at ~205 ns per arrival in one and ~365 in the
// other, with no steal time and the VM's other vCPU idle, and process CPU
// time moved with wall time (it read 1.009× wall time throughout), so
// neither CPU time nor placement separates the two. Within a phase the
// ratio of a cell's time to this kernel's stays within ±5%; across phases
// the kernel slows less than the cells do, so each workload scales the
// kernel's slowdown by its own exponent (cellWorkload.calibExp), fitted by
// regressing log cell time on log kernel time over chunks of consecutive
// replications in runs that crossed both phases.
const (
	calibHeap   = 64      // pending entries in the kernel's heap
	calibTable  = 1 << 14 // float64 table entries (128 KiB)
	calibOps    = 2048    // heap pop+push operations per pass (~0.1 ms)
	calibPasses = 4       // passes per sample; the sample is their median
	// calibRefNs is the kernel's ns per operation in the fast phase on the
	// 2-vCPU Xeon VM the exponents were fitted on: the speed the cells'
	// times are scaled to.
	calibRefNs = 45.0
	// calibWindow is how many samples on each side of a replication its
	// machine speed is the median of: short against a phase, long against
	// one interrupted sample.
	calibWindow = 2
)

// calibrator is the kernel's state; its work per pass is fixed, whatever
// the state.
type calibrator struct {
	heap  [calibHeap]float64
	table [calibTable]float64
	x     uint64
	sink  float64
}

func newCalibrator() *calibrator {
	c := &calibrator{x: 0x9e3779b97f4a7c15}
	for i := range c.table {
		c.x ^= c.x << 13
		c.x ^= c.x >> 7
		c.x ^= c.x << 17
		c.table[i] = float64(c.x%1000) / 1000
	}
	for i := range c.heap {
		c.heap[i] = c.table[i] * 10
	}
	for i := calibHeap/2 - 1; i >= 0; i-- {
		c.down(i)
	}
	c.sample() // warm
	return c
}

func (c *calibrator) down(i int) {
	h := &c.heap
	for {
		l := 2*i + 1
		if l >= calibHeap {
			return
		}
		if r := l + 1; r < calibHeap && h[r] < h[l] {
			l = r
		}
		if h[i] <= h[l] {
			return
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
}

// work runs n heap operations: pop the earliest entry, look up a random
// table entry, branch on it, write one back, push a successor.
func (c *calibrator) work(n int) {
	x, acc := c.x, c.sink
	for k := 0; k < n; k++ {
		now := c.heap[0]
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := c.table[x&(calibTable-1)]
		if v < 0.3 {
			acc += v * now
		} else if v < 0.7 {
			acc -= v
		} else {
			acc *= 0.999
		}
		c.table[(x>>20)&(calibTable-1)] = v*0.5 + 0.25
		c.heap[0] = now + v + 0.01
		c.down(0)
	}
	c.x, c.sink = x, acc
}

// pass runs calibOps heap operations and returns their wall time.
func (c *calibrator) pass() time.Duration {
	t0 := time.Now()
	c.work(calibOps)
	return time.Since(t0)
}

// sample is the kernel's ns per operation now: the median of calibPasses
// passes, so one interrupted pass does not count.
func (c *calibrator) sample() float64 {
	var ps [calibPasses]float64
	for i := range ps {
		ps[i] = float64(c.pass()) / calibOps
	}
	return median(ps[:])
}

// speedFactors turns a run's kernel samples into one factor per sample
// that scales a wall time taken beside it to the calm machine: the
// reference speed over the median speed of the samples around it, raised to
// the workload's exponent.
func speedFactors(samples []float64, exp float64) []float64 {
	fs := make([]float64, len(samples))
	for i := range samples {
		lo, hi := max(0, i-calibWindow), min(len(samples), i+calibWindow+1)
		fs[i] = math.Pow(calibRefNs/median(samples[lo:hi]), exp)
	}
	return fs
}
