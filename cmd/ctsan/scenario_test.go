package main

import (
	"context"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ctsan/internal/checkpoint"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestRunJSONGolden pins the public JSON report schema of
// `ctsan scenario run -json`: external users script against these field names
// and this document shape, so any change here is a deliberate,
// documented break. Regenerate with `go test ./cmd/ctsan -update`
// after such a change.
//
// The run is fully deterministic (fixed seed, serial workers), so the
// golden file pins values as well as schema; a values-only drift means
// the underlying engines changed behavior.
func TestRunJSONGolden(t *testing.T) {
	var buf strings.Builder
	args := []string{"-json", "-execs", "40", "-replicas", "2", "-workers", "1", "-seed", "1",
		"paper-baseline", "flaky-link"}
	if err := cmdScenarioRun(context.Background(), args, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	got := buf.String()

	golden := filepath.Join("testdata", "run_json.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		// Atomic replace (temp+rename+fsync): a golden file must never be
		// left torn by an interrupted -update run.
		if err := checkpoint.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("scenario run -json output diverged from the pinned schema.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestRunJSONGoldenWorkersInvariant re-runs the same campaign with the
// parallel pool and requires byte-identical JSON: the public output must
// not depend on -workers.
func TestRunJSONGoldenWorkersInvariant(t *testing.T) {
	out := func(workers string) string {
		var buf strings.Builder
		args := []string{"-json", "-execs", "40", "-replicas", "2", "-workers", workers, "-seed", "1",
			"paper-baseline", "flaky-link"}
		if err := cmdScenarioRun(context.Background(), args, &buf, io.Discard); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	ref := out("1")
	for _, w := range []string{"2", "8"} {
		if got := out(w); got != ref {
			t.Errorf("-workers %s changed the JSON output", w)
		}
	}
}
