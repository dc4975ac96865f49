package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/service"
)

// server is a shaped process started by the benchmark.
type server struct {
	cmd       *exec.Cmd
	url       string
	storePath string
	gcs       *gcLog
	exited    chan struct{} // closed once the process has been waited for
	waitErr   error
	stopOnce  sync.Once
}

// startServer boots shaped over a store in dir, with the Go runtime's GC
// trace on so the benchmark can read the server's collections and heap
// from outside, and waits until it answers /stats.
func startServer(bin, dir string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-cache-dir", dir)
	cmd.Env = append(os.Environ(), "GODEBUG=gctrace=1")
	cmd.Stdout = io.Discard
	cmd.SysProcAttr = childAttr()
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting shaped: %w", err)
	}
	s := &server{cmd: cmd, url: "http://" + addr, storePath: storeFile(dir), gcs: &gcLog{t0: time.Now()}, exited: make(chan struct{})}
	go func() {
		// Wait only after the stderr pipe is drained (os/exec's rule).
		s.gcs.read(stderr)
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(s.url + "/stats")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("shaped exited during start-up: %v", s.waitErr)
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("shaped did not answer within 30s")
		}
	}
}

// stop drains the server with SIGTERM, kills it if it has not exited
// after 30 s, and returns once the process has been waited for. It is
// safe to call more than once.
func (s *server) stop() error {
	s.stopOnce.Do(func() {
		_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
		select {
		case <-s.exited:
		case <-time.After(30 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.exited
		}
	})
	return s.waitErr
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// client returns a client for the server with one idle connection per
// load-driving client.
func (s *server) client() *service.Client {
	return &service.Client{BaseURL: s.url, HTTP: &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: clients},
	}}
}

// memory returns a /proc/<pid>/status size field of the server, e.g.
// "VmRSS" (resident set) or "VmHWM" (its peak), in bytes.
func (s *server) memory(field string) uint64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == field+":" {
			kb, _ := strconv.ParseUint(f[1], 10, 64)
			return kb << 10
		}
	}
	return 0
}

// freeAddr picks a free loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// gcEvent is one collection from the Go runtime's GC trace.
type gcEvent struct {
	at              time.Time // when the collection started
	startMB, liveMB int64     // heap at start, live after
	pauseMS         float64   // the two stop-the-world phases
}

// gcLog collects the GC trace lines of a process's stderr.
type gcLog struct {
	t0     time.Time // when the process started, to place each "@<s>s"
	mu     sync.Mutex
	events []gcEvent
}

// gcLine matches "gc 12 @3.4s 5%: 0.02+12+0.005 ms clock, ... 120->121->60 MB".
var gcLine = regexp.MustCompile(`^gc \d+ @([\d.]+)s \d+%: ([\d.]+)\+[\d.]+\+([\d.]+) ms clock.* (\d+)->\d+->(\d+) MB`)

func (l *gcLog) read(r io.Reader) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := gcLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		at, _ := strconv.ParseFloat(m[1], 64)
		stw1, _ := strconv.ParseFloat(m[2], 64)
		stw2, _ := strconv.ParseFloat(m[3], 64)
		ev := gcEvent{at: l.t0.Add(time.Duration(at * float64(time.Second))), pauseMS: stw1 + stw2}
		ev.startMB, _ = strconv.ParseInt(m[4], 10, 64)
		ev.liveMB, _ = strconv.ParseInt(m[5], 10, 64)
		l.mu.Lock()
		l.events = append(l.events, ev)
		l.mu.Unlock()
	}
}

// gcWindow summarizes the collections that started in a time window.
type gcWindow struct {
	count   int
	pauseMS float64
	peak    uint64 // highest heap a collection started at
	live    uint64 // live heap after the window's last collection
}

// window summarizes the collections started in (from, to].
func (l *gcLog) window(from, to time.Time) gcWindow {
	l.mu.Lock()
	defer l.mu.Unlock()
	var w gcWindow
	for _, ev := range l.events {
		if !ev.at.After(from) || ev.at.After(to) {
			continue
		}
		w.count++
		w.pauseMS += ev.pauseMS
		w.peak = max(w.peak, uint64(ev.startMB)*mib)
		w.live = uint64(ev.liveMB) * mib
	}
	return w
}
