//go:build race

package qosd

// The race detector drops a quarter of sync.Pool puts at random, and each
// dropped call is built again, its channel, closures and body buffer
// included: handleRequest measured 3 to 4 allocations in all with it,
// against 1 without, and handleMetrics, whose scrape state and render
// buffer are pooled, 8 against 5.
func init() { poolDropHeadroom = 4 }
