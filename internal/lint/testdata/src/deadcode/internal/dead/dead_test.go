package dead

import "testing"

func TestTouch(t *testing.T) {
	TestOnly()
	NewWidget().TestOnlyMethod()
}
