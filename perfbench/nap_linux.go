//go:build linux

package main

import (
	"syscall"
	"time"
)

// nap sleeps for about d (plus the kernel's timer slack, ~50 µs) inside
// a system call. Unlike runtime.Gosched, it leaves the goroutine off the
// scheduler's run queues meanwhile, so another processor that runs out
// of work polls the network instead of picking up the napping goroutine.
func nap(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	// An interrupted nap just ends early; the caller re-reads the clock.
	_ = syscall.Nanosleep(&ts, nil)
}
