//go:build !linux

package main

import (
	"errors"
	"os/exec"
	"time"
)

// dieWithParent has no portable form; elsewhere children end with the
// context they were started under.
func dieWithParent(*exec.Cmd) {}

// spin keeps the CPUs from halting where that is a known source of noise,
// which is Linux guests.
func spin() error { return errors.New("not supported on this platform") }

// sleepUntil blocks until t, as precisely as the runtime's timers allow.
func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

// resetPeakRSS is needed only where a child's ru_maxrss inherits the
// parent's peak, which is Linux.
func resetPeakRSS() error { return nil }
