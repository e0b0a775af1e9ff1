// Package user is a qoslint fixture: the non-test caller that keeps
// dead.UsedElsewhere alive.
package user

import "deadfix/internal/dead"

// Run is called by cmd/tool.
func Run() { dead.UsedElsewhere() }
