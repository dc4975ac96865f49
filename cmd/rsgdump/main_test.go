package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-execute this binary as the rsgdump command:
// with RSGDUMP_RUN_MAIN set, the process runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("RSGDUMP_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// rsgdump runs the command with args and returns its exit code and
// standard error.
func rsgdump(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "RSGDUMP_RUN_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), stderr.String()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, stderr.String()
}

func TestStmtOutOfRangeIsUsageError(t *testing.T) {
	for _, n := range []string{"99999", "-2"} {
		code, stderr := rsgdump(t, "-stmt", n, "slist")
		if code != 2 || !strings.Contains(stderr, "-stmt "+n+" out of range") {
			t.Errorf("-stmt %s: exit %d, stderr %q; want exit 2 with a range error", n, code, stderr)
		}
	}
	if code, stderr := rsgdump(t, "-stmt", "0", "slist"); code != 0 {
		t.Errorf("-stmt 0: exit %d, stderr %q; want exit 0", code, stderr)
	}
}
