//go:build !linux

package main

import "time"

// nap does nothing outside Linux: time.Sleep would wake up to a
// millisecond late, so a ring worker spins on the clock there too.
func nap(time.Duration) {}
