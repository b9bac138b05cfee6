//go:build !linux

package main

import (
	"errors"
	"time"
)

// threadCPU needs Linux's per-thread CPU clock.
func threadCPU() (time.Duration, error) {
	return 0, errors.New("srlbench times its host-speed reference with a per-thread CPU clock, which it reads on Linux only")
}
