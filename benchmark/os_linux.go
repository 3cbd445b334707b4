package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// dieWithParent makes the kernel kill the child when this process dies, so a
// benchmark that is itself killed leaves no server behind to disturb the
// next run's measurements.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

const schedIdle = 5 // SCHED_IDLE, absent from package syscall

// spin is the body of the child that keepAwake starts: on every CPU this
// process may use, one thread pinned to it loops for ever under SCHED_IDLE,
// the policy that runs only when nothing else wants the CPU and gives way
// the moment something does. The virtual CPUs of the reference box halt
// when idle, and each of the four thread wake-ups of a round trip then pays
// an exit to the hypervisor whose cost drifts with the host: the median
// latency of an idle server wandered between 0.27 and 0.46 ms from run to
// run. A CPU that never halts answers in 0.24 ms, run after run. It returns
// only when a thread could not be set up.
func spin() error {
	type cpuSet [16]uint64 // room for 1024 CPUs
	var allowed cpuSet
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed)))
	if errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	failed := make(chan error)
	for cpu := range int(n) * 8 {
		if allowed[cpu/64]&(1<<(cpu%64)) == 0 {
			continue
		}
		go func() {
			runtime.LockOSThread() // both calls below act on the calling thread
			var one cpuSet
			one[cpu/64] = 1 << (cpu % 64)
			if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); errno != 0 {
				failed <- fmt.Errorf("sched_setaffinity: %w", errno)
				return
			}
			var priority int32 // sched_param; SCHED_IDLE takes 0
			if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&priority))); errno != 0 {
				failed <- fmt.Errorf("sched_setscheduler: %w", errno)
				return
			}
			for {
			}
		}()
	}
	return <-failed
}

const prSetTimerSlack = 29 // PR_SET_TIMERSLACK, absent from package syscall

// sleepUntil blocks until t. The Go runtime rounds the timers of an idle
// process up to the millisecond resolution of epoll_wait, which at 2000
// requests a second is the whole interval; nanosleep with the calling
// thread's timer slack set to its minimum wakes within tens of microseconds.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	// The slack belongs to the thread, and the goroutine may have moved to
	// another one since the last call; setting it costs well under 1 µs.
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil) // an early return only makes the request early by less than it would be late
}

// resetPeakRSS lowers this process's peak resident set size to its current
// one. A child's ru_maxrss starts from the peak of the address space it was
// forked in, so a benchmark that has just held a generated dataset of several
// hundred MB would otherwise report its own size for every smaller child.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak RSS children inherit: %w", err)
	}
	return nil
}
