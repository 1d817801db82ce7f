package main

import (
	"context"
	"os"
	"regexp"
	"testing"
)

// The harness reads BENCHMARK.json, builds ./cmd/... and writes below
// .bench_build, all relative to the repository root.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestContractShape pins BENCHMARK.json to the limits of the benchmark
// contract and to the workloads this program knows.
func TestContractShape(t *testing.T) {
	con, err := loadContract()
	if err != nil {
		t.Fatal(err)
	}
	if len(con.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(con.Workloads), len(workloads))
	}
	for i, w := range con.Workloads {
		if w.Name != workloads[i].name || w.Why == "" {
			t.Errorf("workload %d: %q (want %q), why %q", i, w.Name, workloads[i].name, w.Why)
		}
	}
	if n := len(con.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(con.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	setup := false
	for _, d := range append(append([]metricDef(nil), con.EndToEnd...), con.PerLayer...) {
		if !metricName.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
		if d.Unit == "" || (d.Better != "higher" && d.Better != "lower") {
			t.Errorf("metric %s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}
	for _, d := range con.EndToEnd {
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s needs a bound in (0, 0.25]", d.Name)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range con.PerLayer {
		if d.Bound != nil {
			t.Errorf("per-layer metric %s carries a bound", d.Name)
		}
	}
}

// TestHarnessSmoke runs the whole harness at 1/50 scale: set-up, two
// repetitions of every workload against the real binaries, and the
// traced run. Every metric it yields must be one BENCHMARK.json lists,
// and every listed metric must be yielded.
func TestHarnessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the real binaries")
	}
	con, err := loadContract()
	if err != nil {
		t.Fatal(err)
	}
	root, err := workRoot()
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(root)
	e := &env{ctx: context.Background(), root: root, seed: 7, scale: 0.02}
	setups, err := e.setUpTimes(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		m, err := e.measure(w, 0, false)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		m.setups = setups
		if !m.correct() || len(m.reps) != 2 {
			t.Errorf("%s: %d repetitions, %d of %d failed: %v", w.name, len(m.reps), m.failed, m.attempted, m.problems)
		}
		if _, err := report(con.EndToEnd, endToEnd(con, m)); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
	tr, err := e.traceMetrics()
	if err != nil {
		t.Fatal(err)
	}
	if tr.failed > 0 || len(tr.problems) > 0 {
		t.Errorf("traced run: %d of %d failed: %v", tr.failed, tr.attempted, tr.problems)
	}
	if _, err := report(con.PerLayer, tr.values); err != nil {
		t.Error(err)
	}
	for name := range tr.values {
		if !metricName.MatchString(name) {
			t.Errorf("metric name %q is malformed", name)
		}
	}
}
