// Command tool is a qoslint fixture: it keeps user.Run alive.
package main

import "deadfix/internal/user"

func main() { user.Run() }
