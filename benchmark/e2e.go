package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"ctsan/campaign"
)

// env is one invocation's state: where it writes, what it drives, and
// the inputs every workload derives from.
type env struct {
	ctx   context.Context
	root  string // private work root under .bench_build, removed at exit
	bins  binaries
	seed  uint64
	scale float64
	// specs holds the generated study spec files by study name.
	specs map[string]string
	// setUps counts the set-ups done so far; each gets its own directory.
	setUps int
}

// studyInfo is a workload's study as the binaries will freeze it.
type studyInfo struct {
	name   string
	spec   []byte
	points int
	// execs[i] is the execution count the checker expects of point i;
	// total is their sum, the denominator of the end-to-end rates.
	execs []int
	total int
}

func newStudyInfo(study *campaign.Study, seed uint64) (*studyInfo, error) {
	spec, err := campaign.EncodeStudy(study)
	if err != nil {
		return nil, err
	}
	// Sizes do not depend on the seed, but freezing is how replica
	// defaults resolve, so count on the frozen grid.
	frozen, err := study.FrozenPoints(campaign.WithSeed(seed))
	if err != nil {
		return nil, err
	}
	execs, total, err := executions(frozen)
	if err != nil {
		return nil, err
	}
	return &studyInfo{name: study.Name, spec: spec, points: len(frozen), execs: execs, total: total}, nil
}

// setUp is everything a user pays before the first study can be
// submitted: building the two binaries from the checkout's source,
// generating every study spec, and starting ctsand until /healthz
// answers. It returns the binaries and spec files it produced.
func setUp(ctx context.Context, dir string, seed uint64, scale float64) (binaries, map[string]string, error) {
	bins, err := buildBinaries(ctx, filepath.Join(dir, "bin"))
	if err != nil {
		return binaries{}, nil, err
	}
	specs := map[string]string{}
	for _, w := range workloads {
		si, err := newStudyInfo(w.study(scale), seed)
		if err != nil {
			return binaries{}, nil, err
		}
		if _, done := specs[si.name]; done {
			continue // both fine-grid workloads share one spec
		}
		path := filepath.Join(dir, si.name+".json")
		if err := os.WriteFile(path, si.spec, 0o644); err != nil {
			return binaries{}, nil, err
		}
		specs[si.name] = path
	}
	d, err := startDaemon(ctx, bins.ctsand)
	if err != nil {
		return binaries{}, nil, err
	}
	if _, err := d.stop(5 * time.Second); err != nil {
		return binaries{}, nil, err
	}
	return bins, specs, nil
}

// rep is one timed repetition of a workload.
type rep struct {
	wall time.Duration // the timed interval(s), summed
	use  usage         // whole process tree
	// execs is the number of executions served inside wall.
	execs int
	// attempted counts points (and, for the service, HTTP requests);
	// failed those that were missing, undecodable, different from the
	// reference bytes, or answered non-2xx.
	attempted, failed int
	problems          []string
	// notes are things a reader should know that are not failures.
	notes []string
	// out is the primary result stream, kept so repetitions can be
	// compared byte for byte.
	out []byte
	// layer carries the client-side server.* measurements of a service
	// repetition.
	layer map[string]float64
}

func (r *rep) fail(n int, format string, args ...any) {
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// ctsanRun executes `ctsan run` on a fresh directory and returns the
// merged output. The timed interval is exec to exit: the output file is
// written before the supervisor returns.
func (e *env) ctsanRun(si *studyInfo, w workload, seed uint64, dir string) (out []byte, wall time.Duration, u usage, c *child, err error) {
	outPath := filepath.Join(dir, "results.jsonl")
	t0 := time.Now()
	u, c, err = run(e.ctx, e.bins.ctsan, "run",
		"-study", e.specs[si.name],
		"-seed", strconv.FormatUint(seed, 10),
		"-shards", strconv.Itoa(w.shards),
		"-procs", strconv.Itoa(w.shards),
		"-workers", strconv.Itoa(w.workers),
		"-dir", filepath.Join(dir, "ckpt"),
		"-o", outPath)
	wall = time.Since(t0)
	if err != nil {
		return nil, wall, u, c, err
	}
	out, err = os.ReadFile(outPath)
	return out, wall, u, c, err
}

// runRep is one repetition of a `ctsan run` workload. ref is the output
// earlier repetitions produced (nil for the first).
func (e *env) runRep(si *studyInfo, w workload, i int, ref []byte) *rep {
	r := &rep{attempted: si.points, execs: si.total}
	dir := filepath.Join(e.root, fmt.Sprintf("%s-rep%d", w.name, i))
	defer os.RemoveAll(dir)
	out, wall, u, c, err := e.ctsanRun(si, w, e.seed, dir)
	r.wall, r.use, r.out = wall, u, out
	if c != nil && c.stray() {
		r.fail(si.points, "rep %d: ctsan run left a stray process", i)
		return r
	}
	if err != nil {
		r.fail(si.points, "rep %d: %v", i, err)
		return r
	}
	failed, problems := checkOutput(out, ref, si.execs)
	r.failed += failed
	r.problems = append(r.problems, problems...)
	return r
}

// measured is a workload's end-to-end outcome over its repetitions.
type measured struct {
	workload          string
	reps              []*rep
	setups            []float64 // seconds, one per set-up
	attempted, failed int
	problems, notes   []string
	golden            string // "match", "MISMATCH", or why it was skipped
}

func (m *measured) correct() bool { return m.failed == 0 && len(m.problems) == 0 }

// series extracts one end-to-end metric's per-repetition values.
func (m *measured) series(name string) []float64 {
	if name == "setup_s" {
		return m.setups
	}
	vals := make([]float64, len(m.reps))
	for i, r := range m.reps {
		switch name {
		case "exec_per_s":
			vals[i] = float64(r.execs) / r.wall.Seconds()
		case "cpu_us_per_exec":
			vals[i] = float64(r.use.cpu.Microseconds()) / float64(r.execs)
		case "peak_rss_mib":
			vals[i] = r.use.rssMiB
		}
	}
	return vals
}

// measure repeats a workload on fresh directories until the time budget
// is used (always at least twice, so repetitions can be compared), then
// checks the outputs. update rewrites the workload's golden hash instead
// of comparing with it.
func (e *env) measure(w workload, budget time.Duration, update bool) (*measured, error) {
	si, err := newStudyInfo(w.study(e.scale), e.seed)
	if err != nil {
		return nil, err
	}
	m := &measured{workload: w.name}
	var svc *serviceRefs
	if w.service {
		if svc, err = e.serviceRefs(si, w); err != nil {
			return nil, err
		}
	}
	var ref []byte
	deadline := time.Now().Add(budget)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		if e.ctx.Err() != nil {
			return nil, errInterrupted
		}
		var r *rep
		if w.service {
			r = e.serviceRep(si, i, svc)
		} else {
			r = e.runRep(si, w, i, ref)
		}
		if ref == nil {
			ref = r.out
		}
		m.reps = append(m.reps, r)
		m.attempted += r.attempted
		m.failed += r.failed
		m.problems = append(m.problems, r.problems...)
		m.notes = append(m.notes, r.notes...)
	}
	m.golden = e.checkGolden(w, ref, update)
	if m.golden == goldenMismatch {
		m.failed += si.points
		m.problems = append(m.problems, fmt.Sprintf("output differs from %s", goldenPath(w.name)))
	}
	return m, nil
}
