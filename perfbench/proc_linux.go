package main

import (
	"syscall"
	"time"
	"unsafe"
)

// childAttr makes the kernel kill a started server if the benchmark dies
// first, so no server outlives its run.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// cpuTime returns the CPU time, user and system over all threads, that
// process pid has used so far; pid 0 means this process. It reads the
// process's CPU-time clock, which the kernel advances only while a
// thread runs: time the hypervisor gives the CPU to another guest
// (steal) is not in it.
func cpuTime(pid int) (time.Duration, error) {
	clock := uintptr(2) // CLOCK_PROCESS_CPUTIME_ID
	if pid != 0 {
		clock = uintptr(uint32(^pid<<3 | 2)) // the CPUCLOCK_SCHED clock of pid
	}
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, e
	}
	return time.Duration(ts.Nano()), nil
}
