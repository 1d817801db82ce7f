// Command benchmark is the repository's one benchmark: it builds
// cmd/ctsan and cmd/ctsand from the checkout, generates every study spec
// from Go structs, drives five workloads against the real binaries,
// checks their outputs, and prints every metric by name with its unit.
// With -trace 1 it instead runs the in-process traced passes that give
// the per-layer numbers. See README.md in this directory.
//
//	go run ./benchmark -workload emu-grid -seed 1 -seconds 10 -trace 0
//	go run ./benchmark -seed 1            # all five workloads
//	go run ./benchmark -trace 1 -seed 1   # per-layer metrics, spans, cpu_share
//	go run ./benchmark -selfcheck         # two back-to-back sets must agree
//
// It runs from the root of a checkout (it reads BENCHMARK.json and
// builds ./cmd/...), writes only below .bench_build/ and benchmark/out/,
// and ends its standard output with one JSON object.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// contract is BENCHMARK.json: the registry of workloads and metrics. The
// program takes units, directions, bounds and the default run length
// from it, and refuses to print a metric it does not list.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadContract() (*contract, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("run from the root of a checkout: %w", err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// result is the object a run ends its standard output with.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]reported `json:"metrics"`
}

type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report binds measured values to the contract's definitions: every
// listed metric must have a value and every value must be listed.
func report(defs []metricDef, values map[string]float64) (map[string]reported, error) {
	out := make(map[string]reported, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is in BENCHMARK.json but was not measured", d.Name)
		}
		out[d.Name] = reported{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s was measured but is not in BENCHMARK.json", name)
		}
	}
	return out, nil
}

// setUpsPerRun is how many times a run repeats its set-up; setup_s is their
// median, so one slow link step does not decide it.
const setUpsPerRun = 3

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run; empty runs all five in turn")
		seed         = flag.Uint64("seed", goldenSeed, "workload seed: every study spec and per-point seed derives from it")
		seconds      = flag.Int("seconds", 0, "seconds of timed repetitions per workload (default: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics on the real binaries; 1: per-layer metrics from the traced in-process passes")
		selfcheck    = flag.Bool("selfcheck", false, "run the whole end-to-end set twice and fail if any median moved by more than its bound")
		updateGolden = flag.Bool("update-golden", false, "rewrite benchmark/golden/*.sha256 from this run (default seed only)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := func() int {
		defer stop()
		if err := realMain(ctx, *workloadName, *seed, *seconds, *trace, *selfcheck, *updateGolden); err != nil {
			if ctx.Err() != nil {
				err = errInterrupted
			}
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		return 0
	}()
	os.Exit(code)
}

func realMain(ctx context.Context, workloadName string, seed uint64, seconds, trace int, selfcheck, updateGolden bool) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if seed == 0 {
		return errors.New("-seed 0 is reserved (seeds start at 1)")
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	con, err := loadContract()
	if err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = con.RunSeconds
	}
	selected := workloads
	if workloadName != "" {
		w, ok := workloadByName(workloadName)
		if !ok {
			return fmt.Errorf("unknown workload %q", workloadName)
		}
		selected = []workload{w}
	}

	root, err := workRoot()
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	e := &env{ctx: ctx, root: root, seed: seed, scale: 1}
	printHost(root)

	if trace == 1 {
		if _, err := e.setUpTimes(1); err != nil {
			return err
		}
		return e.traceRun(con)
	}

	setups, err := e.setUpTimes(setUpsPerRun)
	if err != nil {
		return err
	}
	budget := time.Duration(seconds) * time.Second
	if selfcheck {
		return e.selfcheck(con, setups, budget)
	}
	ok := true
	for _, w := range selected {
		m, err := e.measure(w, budget, updateGolden)
		if err != nil {
			return err
		}
		m.setups = setups
		if err := printMeasured(con, m); err != nil {
			return err
		}
		ok = ok && m.correct()
	}
	if !ok {
		return errors.New("output check failed")
	}
	return nil
}

// setUpTimes performs the set-up n times on fresh directories and keeps
// the last one's binaries and specs for the run.
func (e *env) setUpTimes(n int) ([]float64, error) {
	var times []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		e.setUps++ // a fresh directory every time, or go build finds its output up to date
		bins, specs, err := setUp(e.ctx, fmt.Sprintf("%s/setup%d", e.root, e.setUps), e.seed, e.scale)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		e.bins, e.specs = bins, specs
	}
	return times, nil
}

// endToEnd reduces a workload's repetitions to the contract's metrics:
// the median over repetitions of each.
func endToEnd(con *contract, m *measured) map[string]float64 {
	values := map[string]float64{}
	for _, d := range con.EndToEnd {
		values[d.Name] = median(m.series(d.Name))
	}
	return values
}

// printMeasured prints a workload's table for people and its result
// object for the driver.
func printMeasured(con *contract, m *measured) error {
	values := endToEnd(con, m)
	fmt.Printf("\n== %s: %d repetitions, %d attempted, %d failed, golden %s\n",
		m.workload, len(m.reps), m.attempted, m.failed, m.golden)
	for _, d := range con.EndToEnd {
		s := m.series(d.Name)
		fmt.Printf("%-18s %14.4f %-6s (min %.4f, max %.4f, n=%d; %s is better, bound %.0f%%) per repetition: %.4g\n",
			d.Name, values[d.Name], d.Unit, slices.Min(s), slices.Max(s), len(s), d.Better, *d.Bound*100, s)
	}
	for _, p := range m.problems {
		fmt.Printf("PROBLEM %s\n", p)
	}
	for _, n := range m.notes {
		fmt.Printf("NOTE %s\n", n)
	}
	metrics, err := report(con.EndToEnd, values)
	if err != nil {
		return err
	}
	return printResult(result{Correct: m.correct(), Attempted: m.attempted, Failed: m.failed, Metrics: metrics})
}

func printResult(r result) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", line)
	return err
}

// printHost records the facts a number depends on beside the numbers.
func printHost(root string) {
	fmt.Printf("host: GOMAXPROCS=%d NumCPU=%d %s %s/%s cpu=%q commit=%s workdir=%s (fs %s)\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		cpuModel(), commit(), root, fsType(root))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the source being measured; the driver's checkout is not a
// git repository, and then there is nothing to name.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext2/3/4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}
