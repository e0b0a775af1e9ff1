// Package dead is a qoslint fixture for the deadcode rule: exported
// declarations, methods and fields with and without non-test uses.
package dead

import "errors"

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

// Lonely is named only by its own methods: a finding.
type Lonely struct{}

// Touch is selected only by Again, a method of its own receiver: a finding.
func (l Lonely) Touch() Lonely { return l }

// Again is never selected: a finding.
func (l Lonely) Again() Lonely { return l.Touch() }

// Limit and Scale are never referenced: one finding each.
const Limit = 3

var Scale = 2.0

// Widget is built by internal/user.
type Widget struct {
	// Read is read by internal/user: silent.
	Read int
	// WriteOnly is assigned, incremented and set in a literal, never read:
	// a finding.
	WriteOnly int
	// Tagged is never read, but encoding/json reaches it through its tag:
	// silent.
	Tagged int `json:"tagged"`
	// Waived is never read but carries a justified allow: silent.
	//lint:allow deadcode fixture demonstrates a justified field waiver
	Waived     int
	unexported int
}

// NewWidget writes every field.
func NewWidget() *Widget {
	w := &Widget{WriteOnly: 1, Tagged: 2, unexported: 3}
	w.WriteOnly = 4
	w.WriteOnly++
	w.WriteOnly += w.unexported
	return w
}

// Used is selected by internal/user: silent.
func (w *Widget) Used() int { return w.Read }

// Area implements internal/user's Shaper and no caller names it: silent.
func (w *Widget) Area() float64 { return 1 }

// TestOnlyMethod is selected only by dead_test.go: a finding.
func (w *Widget) TestOnlyMethod() {}

// Reasonless is never selected and its allow gives no reason: both the
// allow and the method are findings.
//
//lint:allow deadcode
func (w *Widget) Reasonless() {}

// Fault is an error no caller unwraps by name: its stdlib interface
// methods are silent.
type Fault struct{ cause error }

// Error is reached through the error interface: silent.
func (f Fault) Error() string { return "fault" }

// Unwrap is reached through errors.Is and errors.As: silent.
func (f Fault) Unwrap() error { return f.cause }

// MarshalJSON is reached through encoding/json: silent.
func (f Fault) MarshalJSON() ([]byte, error) { return []byte(`"fault"`), nil }

// ErrFault is what NewWidget's callers compare against.
var ErrFault error = Fault{cause: errors.New("cause")}
