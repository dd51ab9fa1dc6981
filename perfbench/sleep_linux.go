package main

import (
	"syscall"
	"time"
)

// sleepFor blocks the calling thread in nanosleep(2) for d, which the
// kernel ends within its timer slack (about 50 µs). The paced generator
// waits for each due time with it rather than with time.Sleep: Go's
// timers fire at millisecond granularity on an idle Linux process, so
// the batches went out in 1 ms groups, about 0.45 ms late at the median
// on a 2-vCPU virtual machine. That was more than half the wire-stream
// latency, and it moved with the host's load.
func sleepFor(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
