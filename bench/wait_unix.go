//go:build unix

package main

import (
	"syscall"
	"time"
)

// sleep blocks for d in the kernel. The runtime's own timers are served
// by a poller with millisecond resolution: time.Sleep overshoots by half
// a millisecond at the median on the reference box, nanosleep by a
// tenth of that.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep is retried by waitUntil's loop
}
