// Package user is a qoslint fixture: the non-test caller that keeps
// dead.UsedElsewhere, Widget.Used, Widget.Read and Widget.Area alive.
package user

import "deadfix/internal/dead"

// Shaper is a module interface: declaring Area keeps every Area method
// alive.
type Shaper interface {
	Area() float64
}

// Run is called by cmd/tool.
func Run() {
	dead.UsedElsewhere()
	w := dead.NewWidget()
	var s Shaper = w
	_ = w.Used() + w.Read + int(s.Area())
	_ = dead.ErrFault
}
