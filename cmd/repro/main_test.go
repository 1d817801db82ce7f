package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain doubles as the binary under test: re-executed with
// REPRO_MAIN=1 it is `repro` itself, exit code included.
func TestMain(m *testing.M) {
	if os.Getenv("REPRO_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func repro(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "REPRO_MAIN=1")
	var out, errb strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	if exit, ok := err.(*exec.ExitError); ok {
		return exit.ExitCode(), out.String(), errb.String()
	} else if err != nil {
		t.Fatal(err)
	}
	return 0, out.String(), errb.String()
}

func TestUnknownArtifactIsRejected(t *testing.T) {
	code, stdout, stderr := repro(t, "-what", "bogus")
	if code != 2 || stdout != "" {
		t.Fatalf("-what bogus: exit %d, stdout %q", code, stdout)
	}
	for _, id := range artifacts {
		if !strings.Contains(stderr, id) {
			t.Errorf("error does not list %q: %s", id, stderr)
		}
	}
	// A known artifact, in any case, still runs.
	code, stdout, stderr = repro(t, "-what", "FIG7B", "-scale", "0.1", "-q")
	if code != 0 || !strings.Contains(stdout, "t_send") {
		t.Fatalf("-what FIG7B: exit %d\n%s%s", code, stdout, stderr)
	}
}
