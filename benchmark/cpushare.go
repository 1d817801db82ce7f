package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
)

// cpuBuckets are the layers CPU samples are attributed to.
var cpuBuckets = []string{"des", "san", "netsim", "protocol", "harness", "stats", "runtime", "other"}

// bucketOf maps a function to the layer whose package defines it.
func bucketOf(fn string) string {
	// The package is everything before the first dot after the last slash.
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return "other"
	}
	pkg := fn[:slash+1+dot]
	switch pkg {
	case "ctsan/internal/des":
		return "des"
	case "ctsan/internal/san", "ctsan/internal/sanmodel":
		return "san"
	case "ctsan/internal/netsim", "ctsan/internal/neko":
		return "netsim"
	case "ctsan/internal/fd", "ctsan/internal/consensus":
		return "protocol"
	case "ctsan/internal/experiment", "ctsan/internal/scenario":
		return "harness"
	case "ctsan/internal/metrics", "ctsan/internal/stats", "ctsan/internal/rng", "ctsan/internal/dist":
		return "stats"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// profileHz is the sampling rate asked for the traced engine passes. A
// pass burns about two CPU-seconds, so the default 100 Hz would give too
// few samples to split eight ways. The kernel's timer tick caps what is
// delivered (about 250 Hz on the sizing host).
const profileHz = 500

// profiled runs fn under the CPU profiler and buckets the flat samples
// `go tool pprof -top` reports by package. It returns each bucket's
// share of the samples and the sample count.
func profiled(e *env, path string, fn func() error) (map[string]float64, int, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, 0, err
	}
	// pprof.StartCPUProfile always asks for 100 Hz; setting the rate first
	// makes its own request a no-op (the runtime says so on stderr) and
	// the profile header carries the real rate.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, 0, err
	}
	runErr := fn()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, 0, err
	}
	if runErr != nil {
		return nil, 0, runErr
	}
	out, err := exec.CommandContext(e.ctx, "go", "tool", "pprof", "-top",
		"-sample_index=samples", "-nodecount=1000000", "-nodefraction=0", path).Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w", err)
	}
	counts, total := map[string]float64{}, 0
	inTable := false
	for _, line := range strings.Split(string(out), "\n") {
		fields := strings.Fields(line)
		if !inTable {
			inTable = len(fields) > 0 && fields[0] == "flat"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		flat, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, 0, fmt.Errorf("go tool pprof -top: unexpected line %q", line)
		}
		counts[bucketOf(strings.Join(fields[5:], " "))] += float64(flat)
		total += flat
	}
	shares := map[string]float64{}
	for _, b := range cpuBuckets {
		shares[b] = counts[b] / float64(max(total, 1)) // a pass too short to be sampled has no shares
	}
	return shares, total, nil
}
