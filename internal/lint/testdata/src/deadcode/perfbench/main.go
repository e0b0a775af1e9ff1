// Command perfbench is a qoslint fixture: a nested module whose references
// count like any other non-test file's.
package main

import "deadfix/internal/dead"

func main() { dead.UsedByPerfbench() }
