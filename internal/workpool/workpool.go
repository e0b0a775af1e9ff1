// Package workpool is the shared deterministic work pool behind every sweep
// in the repository: sim.SweepConfigs (behind sim.SweepCutoffs,
// sim.RunReplications and the figure generators) flattens its (sweep point
// × replication) grid into one indexed job list and hands it to Run.
//
// Determinism contract: jobs receive their index and must write results into
// index-addressed slots only. The pool guarantees that every job runs exactly
// once and that Run returns the error of the lowest-indexed failing job, so
// the observable outcome is independent of how the scheduler interleaves the
// workers — a workers=1 run and a workers=N run produce bit-identical output.
package workpool

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError reports a job that panicked instead of returning. The pool
// recovers it into an ordinary indexed error so one crashing replication
// cannot take down a whole sweep (or leave sibling workers deadlocked on a
// dead WaitGroup), while the stack keeps the failure debuggable.
type PanicError struct {
	// Index is the panicking job's index.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("workpool: job %d panicked: %v", e.Index, e.Value)
}

var (
	mu       sync.Mutex
	override int // 0 = size from GOMAXPROCS
)

// SetWorkers overrides the pool size for subsequent Run calls and returns the
// previous override. n <= 0 restores automatic sizing (see Workers). The
// override is process-global: CLI drivers set it once from a -workers flag.
func SetWorkers(n int) (prev int) {
	mu.Lock()
	defer mu.Unlock()
	prev = override
	if n <= 0 {
		n = 0
	}
	override = n
	return prev
}

// Workers returns the effective pool size: the SetWorkers override when one
// is set, otherwise GOMAXPROCS−1 (at least 1). GOMAXPROCS — not
// runtime.NumCPU — is the sizing signal, because containers and CI runners
// often see the host's full CPU count while being quota-limited to far fewer.
func Workers() int {
	mu.Lock()
	o := override
	mu.Unlock()
	if o > 0 {
		return o
	}
	n := runtime.GOMAXPROCS(0) - 1
	if n < 1 {
		n = 1
	}
	return n
}

// Run executes jobs 0..n−1 across min(Workers(), n) goroutines and returns
// the error of the lowest-indexed failing job (nil when all succeed). Every
// job runs exactly once, whatever the worker count; with a single worker the
// jobs run inline in index order. A job that panics is recovered into a
// *PanicError at its index — lowest-index-wins applies to panics and
// ordinary errors alike, so crash reporting is as deterministic as the
// results themselves.
func Run(n int, job func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := Workers()
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			errs[i] = runJob(i, job)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					errs[i] = runJob(i, job)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runJob invokes one job, converting a panic into its indexed error.
func runJob(i int, job func(i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return job(i)
}
