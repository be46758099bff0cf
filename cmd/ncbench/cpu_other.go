//go:build !unix

package main

import "time"

// cpuTime is unavailable here; runtime.cpu_busy_share is then omitted.
func cpuTime() (time.Duration, bool) { return 0, false }
