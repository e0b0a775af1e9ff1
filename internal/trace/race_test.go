//go:build race

package trace

// The race detector drops a quarter of sync.Pool puts at random, so a test
// cannot count on getting a flushed chain back.
func init() { poolDropsPuts = true }
