package service_test

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/service"
)

// TestServiceSmoke is the end-to-end exercise behind `make
// service-smoke`: it builds the real shaped/shapec/shapecheck
// binaries, boots the daemon over a temp store, round-trips /analyze
// twice through `shapec -remote` (the second run must warm-start from
// the store), runs `shapecheck -remote` on a corpus task (which must
// grow the store by more than its read-allocate decode cache), and
// drains the daemon with SIGTERM expecting a clean exit.
func TestServiceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test builds and boots real binaries; skipped in -short")
	}
	dir := t.TempDir()

	bins := map[string]string{}
	for _, cmd := range []string{"shaped", "shapec", "shapecheck"} {
		bin := filepath.Join(dir, cmd)
		out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/"+cmd).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", cmd, err, out)
		}
		bins[cmd] = bin
	}

	// Pick a port; the tiny close-to-bind window is fine for a smoke
	// test on a loopback interface.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("probing for a port: %v", err)
	}
	addr := l.Addr().String()
	l.Close()
	base := "http://" + addr

	cacheDir := filepath.Join(dir, "cache")
	daemon := exec.Command(bins["shaped"], "-addr", addr, "-cache-dir", cacheDir, "-workers", "2")
	daemon.Stdout = os.Stderr
	daemon.Stderr = os.Stderr
	if err := daemon.Start(); err != nil {
		t.Fatalf("starting shaped: %v", err)
	}
	exited := make(chan error, 1)
	go func() { exited <- daemon.Wait() }()
	defer daemon.Process.Kill()

	waitHealthy(t, base, exited)

	// Round 1: cold analysis via the remote client mode.
	out1 := runCmd(t, bins["shapec"], "-remote", base, "slist")
	if !strings.Contains(out1, "converged") {
		t.Fatalf("cold remote analyze did not converge:\n%s", out1)
	}
	digest1 := digestLine(t, out1)

	// Round 2: same program again — the daemon must warm-start from
	// its store and return the identical result digest.
	out2 := runCmd(t, bins["shapec"], "-remote", base, "slist")
	if !strings.Contains(out2, "converged") {
		t.Fatalf("warm remote analyze did not converge:\n%s", out2)
	}
	if d := digestLine(t, out2); d != digest1 {
		t.Fatalf("warm-start digest %s differs from cold digest %s", d, digest1)
	}
	if !warmStarted(out2) {
		t.Fatalf("second round reused no statements (no warm start):\n%s", out2)
	}

	// A corpus task through the remote checkers.
	task := filepath.Join("..", "verdict", "testdata", "corpus", "cycle_walk_safe.c")
	if _, err := os.Stat(task); err != nil {
		t.Fatalf("corpus task missing: %v", err)
	}
	client := &service.Client{BaseURL: base}
	before := storeStats(t, client)
	out3 := runCmd(t, bins["shapecheck"], "-remote", base, task)
	if !strings.Contains(out3, "ok (remote)") {
		t.Fatalf("remote corpus check did not match its header:\n%s", out3)
	}
	// The check writes graphs that nothing reads back: the store grows,
	// but its decode cache, which fills on reads only, grows by less.
	after := storeStats(t, client)
	grew, cached := after.Graphs-before.Graphs, after.CachedGraphs-before.CachedGraphs
	if grew <= 0 || cached >= grew {
		t.Fatalf("remote check grew the store by %d graphs and its decode cache by %d; want graphs > cache growth",
			grew, cached)
	}
	t.Logf("remote check: +%d graphs, +%d cached, +%d decodes", grew, cached, after.Decodes-before.Decodes)

	// Graceful drain: SIGTERM, exit 0.
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("shaped exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("shaped did not drain within 30s of SIGTERM")
	}
}

func storeStats(t *testing.T, c *service.Client) *service.StoreStats {
	t.Helper()
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("/stats: %v", err)
	}
	if st.Store == nil {
		t.Fatal("/stats reports no store")
	}
	return st.Store
}

func waitHealthy(t *testing.T, base string, exited <-chan error) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		select {
		case err := <-exited:
			t.Fatalf("shaped exited during startup: %v", err)
		default:
		}
		r, err := http.Get(base + "/healthz")
		if err == nil {
			r.Body.Close()
			if r.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("shaped never became healthy: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func runCmd(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

// digestLine extracts the "result digest <hex>" suffix of shapec's
// remote summary line.
func digestLine(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if i := strings.Index(line, "result digest "); i >= 0 {
			return strings.TrimSpace(line[i+len("result digest "):])
		}
	}
	t.Fatalf("no result digest in output:\n%s", out)
	return ""
}

// warmStarted reports a non-zero "N statements reused" figure.
func warmStarted(out string) bool {
	for _, line := range strings.Split(out, "\n") {
		if i := strings.Index(line, "statements reused"); i >= 0 {
			var n int
			fields := strings.Fields(line[:i])
			if len(fields) == 0 {
				return false
			}
			if _, err := fmt.Sscanf(fields[len(fields)-1], "%d", &n); err == nil {
				return n > 0
			}
		}
	}
	return false
}
