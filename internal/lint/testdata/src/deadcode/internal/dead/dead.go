// Package dead is a qoslint fixture for the deadcode rule: exported
// declarations with and without non-test references.
package dead

// TestOnly is referenced only from dead_test.go: a finding.
func TestOnly() {}

// UsedElsewhere is called by internal/user: silent.
func UsedElsewhere() {}

// UsedInPackage is called by this package's own non-test code: silent.
func UsedInPackage() {}

func caller() { UsedInPackage() }

// UsedByPerfbench is called only by the perfbench module: silent.
func UsedByPerfbench() {}

// Waived is unreferenced but carries a justified allow: silent.
//
//lint:allow deadcode fixture demonstrates a justified waiver
func Waived() {}

// Reasonless is unreferenced and its allow gives no reason: both the allow
// and the declaration are findings.
//
//lint:allow deadcode
func Reasonless() {}

// Recursive refers only to itself: a finding.
func Recursive(n int) int {
	if n <= 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Lonely is named only by its own method: a finding. The method itself is
// out of the rule's scope.
type Lonely struct{}

// Touch names its receiver type.
func (l Lonely) Touch() Lonely { return l }

// Limit and Scale are never referenced: one finding each.
const Limit = 3

var Scale = 2.0
