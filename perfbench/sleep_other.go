//go:build !linux

package main

import "time"

// sleepFor is time.Sleep where nanosleep(2) is not wrapped; the paced
// generator's lateness then follows the runtime's timer granularity.
func sleepFor(d time.Duration) { time.Sleep(d) }
