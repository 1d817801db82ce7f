package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ctsan/internal/checkpoint"
)

// traceOut runs `scenario trace` with the given worker count and returns
// its JSONL output.
func traceOut(t *testing.T, workers string) string {
	t.Helper()
	var buf strings.Builder
	args := []string{"-execs", "20", "-replicas", "2", "-workers", workers, "-seed", "1",
		"flaky-link"}
	if err := cmdScenarioTrace(context.Background(), args, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestTraceGolden pins the JSONL trace of a registry scenario byte for
// byte. The trace is part of the tool's public surface (scripts parse
// it, Perfetto loads its Chrome form), and — determinism rule 6 — it is
// a pure function of the seed, so the golden file pins both the record
// schema and the exact event stream. Regenerate with
// `go test ./cmd/ctsan -update` after a deliberate change.
func TestTraceGolden(t *testing.T) {
	var buf strings.Builder
	args := []string{"-execs", "5", "-replicas", "1", "-workers", "1", "-seed", "1",
		"flaky-link"}
	if err := cmdScenarioTrace(context.Background(), args, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	got := buf.String()

	golden := filepath.Join("testdata", "trace_flaky_link.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := checkpoint.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		// Traces run to tens of thousands of lines; show where they split.
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("trace diverged from golden at line %d:\ngot:  %s\nwant: %s", i+1, g[i], w[i])
			}
		}
		t.Fatalf("trace length diverged from golden: got %d lines, want %d", len(g), len(w))
	}
}

// TestTraceWorkersInvariant is the CLI-level differential for
// determinism rule 6: the concatenated replica traces must be
// byte-identical at -workers 1, 2, and 8.
func TestTraceWorkersInvariant(t *testing.T) {
	ref := traceOut(t, "1")
	for _, w := range []string{"2", "8"} {
		if got := traceOut(t, w); got != ref {
			t.Errorf("-workers %s changed the trace bytes", w)
		}
	}
}

// TestTraceExplainRuns exercises the -explain path end to end on a
// scenario whose degraded links produce wrong suspicions at some seed.
func TestTraceExplainRuns(t *testing.T) {
	var buf strings.Builder
	args := []string{"-explain", "-execs", "20", "-replicas", "4", "-workers", "1", "-seed", "1",
		"flaky-link"}
	if err := cmdScenarioTrace(context.Background(), args, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "wrong suspicion") && !strings.Contains(out, "no wrong suspicions") {
		t.Fatalf("explain output shows neither suspicions nor the empty note:\n%s", out)
	}
}

// TestTraceChromeFile checks the -chrome output is a loadable
// trace_event document.
func TestTraceChromeFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var buf strings.Builder
	args := []string{"-o", os.DevNull, "-chrome", path, "-execs", "5", "-workers", "1", "-seed", "1",
		"flaky-link"}
	if err := cmdScenarioTrace(context.Background(), args, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.HasPrefix(s, `{"traceEvents":[`) || !strings.Contains(s, `"displayTimeUnit":"ms"`) {
		t.Fatalf("chrome trace document malformed:\n%.200s", s)
	}
}

// TestTraceUsageErrors pins the argument contract: exactly one scenario,
// and -spec excludes a positional name; anything else is a usage error.
func TestTraceUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"flaky-link", "gc-storm"},
		{"-spec", "x.json", "flaky-link"},
	} {
		if code, stdout, _ := ctsan(t, append([]string{"scenario", "trace"}, args...)...); code != 2 || stdout != "" {
			t.Errorf("scenario trace %v: exit %d, stdout %q; want a usage error", args, code, stdout)
		}
	}
}

// TestTraceOutputWriteErrorFails: the trace is smaller than the write
// buffer, so a full device only shows at the flush — which -o and
// -chrome must not drop.
func TestTraceOutputWriteErrorFails(t *testing.T) {
	const full = "/dev/full"
	if _, err := os.Stat(full); err != nil {
		t.Skipf("%s: %v", full, err)
	}
	for _, args := range [][]string{
		{"-o", full},
		{"-o", os.DevNull, "-chrome", full},
	} {
		args = append(append([]string{"scenario", "trace", "-execs", "1", "-cap", "8"}, args...), "flaky-link")
		if code, _, errb := ctsan(t, args...); code != 1 || !strings.Contains(errb, "no space left") {
			t.Errorf("ctsan %v: exit %d, stderr %q; want the write error", args, code, errb)
		}
	}
}
