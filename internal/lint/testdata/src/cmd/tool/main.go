// Command tool is a qoslint fixture: binaries (cmd/) may read
// the wall clock for progress reporting; only registrydoc applies here.
package main

import (
	"fmt"
	"time"
)

func main() {
	start := time.Now()
	fmt.Println("elapsed:", time.Since(start))
}
