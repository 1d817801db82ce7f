// Command benchjson converts `go test -bench` text output into a
// machine-readable JSON document, so benchmark runs can be archived and
// diffed across commits (scripts/bench_emulation.sh writes
// BENCH_emulation.json with it, and CI uploads the result per build).
//
// Usage:
//
//	go test -run=- -bench . -benchmem ./... | benchjson -o BENCH.json
//	benchjson -baseline BENCH_emulation.json -diff BENCH_emulation.ci.json
//
// The second form is the regression gate: it compares a fresh document
// against the committed baseline and exits non-zero when any benchmark's
// ns/op drifts more than -max-ns-drift percent (default 15) or its
// allocs/op more than -max-allocs-drift percent (default 5). The
// allocs/op bound is deliberately tighter than the ns/op bound: alloc
// counts are deterministic (no machine noise), and with the inner loop
// near-alloc-free a single stray box per execution is a >5% move that a
// looser gate would wave through. Only regressions gate; improvements
// and benchmarks present on one side only pass silently.
//
// Every benchmark line ("BenchmarkFoo-2  30  123 ns/op  4 B/op ...")
// becomes one entry carrying the benchmark name, GOMAXPROCS suffix,
// iteration count, and a unit → value map that includes custom
// b.ReportMetric units. Package and CPU context lines are attached to the
// entries that follow them. Non-benchmark lines are ignored, so the
// verbose output of a full test run can be piped through unchanged.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"ctsan/internal/checkpoint"
)

// Entry is one benchmark result.
type Entry struct {
	Pkg  string `json:"pkg,omitempty"`
	CPU  string `json:"cpu,omitempty"`
	Name string `json:"name"`
	// Procs is the -N GOMAXPROCS suffix of the benchmark name (0 if the
	// name carried none).
	Procs int   `json:"procs,omitempty"`
	N     int64 `json:"n"`
	// Metrics maps a unit (ns/op, B/op, allocs/op, custom ReportMetric
	// units) to its value.
	Metrics map[string]float64 `json:"metrics"`
}

// Document is the top-level JSON shape.
type Document struct {
	GoVersion  string  `json:"go_version"`
	Benchmarks []Entry `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	baseline := flag.String("baseline", "", "gate mode: committed benchmark JSON to compare -diff against")
	diff := flag.String("diff", "", "gate mode: current benchmark JSON (requires -baseline)")
	maxNS := flag.Float64("max-ns-drift", 15, "gate mode: max ns/op regression percent (negative disables)")
	maxAllocs := flag.Float64("max-allocs-drift", 5, "gate mode: max allocs/op regression percent (negative disables)")
	flag.Parse()

	// Gate mode: compare two previously written documents instead of
	// converting stdin; CI fails the workflow when the current run
	// regressed past the committed baseline.
	if *baseline != "" || *diff != "" {
		if *baseline == "" || *diff == "" {
			fatal(fmt.Errorf("gate mode needs both -baseline and -diff"))
		}
		if err := runGate(*baseline, *diff, gateLimits{NSDrift: *maxNS, AllocsDrift: *maxAllocs}); err != nil {
			fatal(err)
		}
		return
	}

	doc := Document{GoVersion: runtime.Version(), Benchmarks: []Entry{}}
	var pkg, cpu string
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg: "))
		case strings.HasPrefix(line, "cpu: "):
			cpu = strings.TrimSpace(strings.TrimPrefix(line, "cpu: "))
		case strings.HasPrefix(line, "Benchmark"):
			if e, ok := parseBench(line); ok {
				e.Pkg, e.CPU = pkg, cpu
				doc.Benchmarks = append(doc.Benchmarks, e)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(buf)
	} else {
		// Atomic replace: an interrupted run must not leave a torn
		// BENCH_emulation.json for the next diff to choke on.
		err = checkpoint.WriteFile(*out, buf, 0o644)
	}
	if err != nil {
		fatal(err)
	}
}

// parseBench parses one benchmark result line: name, iteration count,
// then value/unit pairs.
func parseBench(line string) (Entry, bool) {
	fields := strings.Fields(line)
	// Need at least "BenchmarkX N value unit".
	if len(fields) < 4 {
		return Entry{}, false
	}
	e := Entry{Name: fields[0], Metrics: map[string]float64{}}
	if i := strings.LastIndex(e.Name, "-"); i > 0 {
		if p, err := strconv.Atoi(e.Name[i+1:]); err == nil {
			e.Name, e.Procs = e.Name[:i], p
		}
	}
	n, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Entry{}, false
	}
	e.N = n
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Entry{}, false
		}
		e.Metrics[fields[i+1]] = v
	}
	return e, true
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
