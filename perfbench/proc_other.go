//go:build !linux

package main

import (
	"errors"
	"syscall"
	"time"
)

func childAttr() *syscall.SysProcAttr { return nil }

func cpuTime(pid int) (time.Duration, error) {
	return 0, errors.New("process CPU clocks are read on Linux only")
}
