package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"ctsan/campaign"
	"ctsan/internal/cliflags"
	"ctsan/internal/experiment"
	"ctsan/internal/metrics"
	"ctsan/internal/neko"
	"ctsan/internal/san"
)

// The paper-reproduction commands, each a builder of campaign studies:
// repro regenerates §5 — calibration, then the figures' points as at most
// two studies, then the renderers; sanrun, testbed and fdqos each build
// one study from their flags — the SAN half, the measurement half, and
// the FD-QoS pipeline between them (§5.4).

// campaignFlags is what the commands that run campaigns from flags share:
// -seed and -workers, the reserved-seed check, the -debug-addr listener
// (for the command that has the flag) and the campaign run itself. Each
// command keeps only its own point construction and rendering.
type campaignFlags struct {
	*flag.FlagSet
	seed      *uint64
	workers   *int
	debugAddr *string // "" unless the command registers -debug-addr
}

func newCampaignFlags(name string, stderr io.Writer) *campaignFlags {
	fs := flagSet(name, stderr)
	return &campaignFlags{FlagSet: fs, seed: cliflags.Seed(fs), workers: cliflags.Workers(fs), debugAddr: new(string)}
}

// parse parses args and rejects the reserved seed.
func (f *campaignFlags) parse(args []string) error {
	if err := cliflags.Parse(f.FlagSet, args); err != nil {
		return err
	}
	return cliflags.CheckSeed(*f.seed)
}

// collect executes the study on -workers goroutines, serving the debug
// listener for its duration when one was asked for, and returns every
// result in point order.
func (f *campaignFlags) collect(ctx context.Context, study *campaign.Study, opts ...campaign.Option) ([]*campaign.Result, error) {
	stopDebug, err := cliflags.StartDebug(*f.debugAddr, func(format string, args ...any) {
		fmt.Fprintf(f.Output(), f.Name()+": "+format+"\n", args...)
	})
	if err != nil {
		return nil, err
	}
	defer stopDebug()
	return campaign.RunCollect(ctx, study, append(opts, campaign.WithWorkers(*f.workers))...)
}

// crashedFlag resolves a -crash value against the process count: 0 is no
// crash, 1..n the initially crashed process.
func crashedFlag(crash, n int) ([]int, error) {
	if crash == 0 {
		return nil, nil
	}
	if crash < 0 || crash > n {
		return nil, cliflags.Usagef("-crash %d: want 0 (none) or a process id in 1..%d", crash, n)
	}
	return []int{crash}, nil
}

// cmdSanrun builds the paper's SAN model of the ◇S consensus algorithm
// with explicit parameters and solves it by replicated transient
// simulation — the UltraSAN half of the paper's methodology, as one
// SANPoint study:
//
//	ctsan sanrun -n 5 -replicas 3000            # class 1
//	ctsan sanrun -n 5 -crash 1                  # class 2
//	ctsan sanrun -n 5 -tmr 20 -tm 2 -fd exp     # class 3 from QoS
//	ctsan sanrun -n 5 -tsend 0.01               # Fig. 7b sweep point
//	ctsan sanrun -n 5 -json                     # one JSONL result
func cmdSanrun(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newCampaignFlags("sanrun", stderr)
	var (
		n        = fs.Int("n", 3, "number of processes")
		replicas = fs.Int("replicas", 2000, "transient simulation replicas")
		crash    = fs.Int("crash", 0, "initially crashed process (0 = none)")
		tsend    = fs.Float64("tsend", 0.025, "t_send = t_receive in ms (§5.1)")
		tmr      = fs.Float64("tmr", 0, "FD mistake recurrence time T_MR in ms (0 = accurate FD)")
		tm       = fs.Float64("tm", 0, "FD mistake duration T_M in ms")
		fdKind   = fs.String("fd", "det", "FD sojourn distribution: det or exp (§3.4)")
		asJSON   = cliflags.JSON(fs.FlagSet)
	)
	if err := fs.parse(args); err != nil {
		return err
	}
	if *fdKind != "det" && *fdKind != "exp" {
		return cliflags.Usagef("-fd %q: want det or exp", *fdKind)
	}
	crashed, err := crashedFlag(*crash, *n)
	if err != nil {
		return err
	}
	study := campaign.NewStudy("sanrun", campaign.SANPoint{
		Name:          fmt.Sprintf("san n=%d", *n),
		N:             *n,
		Replicas:      *replicas,
		TSend:         *tsend,
		Crashed:       crashed,
		TMR:           *tmr,
		TM:            *tm,
		FDExponential: *fdKind == "exp",
		Seed:          *fs.seed,
	})
	results, err := fs.collect(ctx, study)
	if err != nil {
		return err
	}
	r := results[0]
	if *asJSON {
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		_, err = stdout.Write(append(line, '\n'))
		return err
	}
	fmt.Fprintf(stdout, "SAN model latency over %d replicas (n=%d):\n", r.Latency.N, *n)
	fmt.Fprintf(stdout, "  mean   %.3f ms ± %.3f (90%% CI)\n", r.Latency.Mean, r.Latency.CI90)
	fmt.Fprintf(stdout, "  median %.3f ms   p90 %.3f ms   max %.3f ms\n", r.Latency.P50, r.Latency.P90, r.Latency.Max)
	if r.Aborted > 0 {
		fmt.Fprintf(stdout, "  %d replicas discarded (rounds guard or horizon)\n", r.Aborted)
	}
	return nil
}

// cmdTestbed runs one measurement campaign on the emulated cluster and
// prints summary statistics — the "experiments on a cluster of PCs" half
// of the paper's methodology. The plain campaign is one LatencyPoint
// study; the -throughput and -transient extensions drive the internal
// harness directly, on purpose: each is one campaign, so a study would
// add no fan-out, and each reports a shape campaign.Result does not
// carry — a decision rate, a per-execution latency trace around the
// crash. (Named injection scenarios are `ctsan scenario run`.)
//
//	ctsan testbed -n 5 -execs 5000          # class 1 (§5.2)
//	ctsan testbed -n 5 -crash 1             # class 2, coordinator crash
//	ctsan testbed -n 5 -T 10 -execs 1000    # class 3, heartbeat FD (§5.4)
func cmdTestbed(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newCampaignFlags("testbed", stderr)
	var (
		n          = fs.Int("n", 3, "number of processes (paper: odd 3..11)")
		execs      = fs.Int("execs", 1000, "sequential consensus executions")
		crash      = fs.Int("crash", 0, "process crashed from the beginning (0 = none)")
		t          = fs.Float64("T", 0, "heartbeat FD timeout in ms (0 = perfect oracle FD)")
		th         = fs.Float64("Th", 0, "heartbeat period in ms (0 = 0.7*T)")
		gap        = fs.Float64("gap", 10, "separation between execution starts in ms (§4)")
		throughput = fs.Bool("throughput", false, "chain executions back to back and report the decision rate (§6 extension)")
		transient  = fs.Bool("transient", false, "crash -crash mid-campaign under a live heartbeat FD and report the latency transient (§6 extension)")
	)
	if err := fs.parse(args); err != nil {
		return err
	}
	crashed, err := crashedFlag(*crash, *n)
	if err != nil {
		return err
	}
	if *throughput {
		return runThroughput(ctx, stdout, *n, *execs, *crash, *t, *fs.seed)
	}
	if *transient {
		// The crash comes after execs/4 executions and its transient spans
		// three: fewer than 5 leaves a steady state with nothing in it.
		if *execs < 5 {
			return cliflags.Usagef("-execs %d: -transient needs at least 5 (a steady state on each side of the crash)", *execs)
		}
		return runTransient(ctx, stdout, *n, *execs, *crash, *t, *fs.seed)
	}

	results, err := fs.collect(ctx, campaign.NewStudy("testbed", campaign.LatencyPoint{
		Name:       fmt.Sprintf("testbed n=%d", *n),
		N:          *n,
		Executions: *execs,
		Gap:        *gap,
		TimeoutT:   *t,
		PeriodTh:   *th,
		Crashed:    crashed,
		Seed:       *fs.seed,
	}))
	if err != nil {
		return err
	}
	r := results[0]
	res := r.Raw().(*experiment.LatencyResult)
	fmt.Fprintf(stdout, "latency over %d executions (n=%d):\n", r.Latency.N, *n)
	fmt.Fprintf(stdout, "  mean   %.3f ms ± %.3f (90%% CI)\n", r.Latency.Mean, r.Latency.CI90)
	fmt.Fprintf(stdout, "  median %.3f ms   p90 %.3f ms   min %.3f   max %.3f\n",
		r.Latency.P50, r.Latency.P90, r.Latency.Min, r.Latency.Max)
	fmt.Fprintf(stdout, "  mean deciding round %.2f, aborted executions %d\n", res.MeanRounds(), r.Aborted)
	if *t > 0 {
		fmt.Fprintf(stdout, "  failure detector QoS over T_exp=%.0f ms: %s\n", r.Texp, res.QoS)
	}
	fmt.Fprintf(stdout, "  simulated %.0f ms of cluster time in %d events\n", r.Texp, r.Events)
	return nil
}

// runThroughput executes the §6 throughput extension: consensus #(k+1)
// starts on each process immediately after #k decides there.
func runThroughput(ctx context.Context, out io.Writer, n, execs, crash int, timeout float64, seed uint64) error {
	spec := experiment.ThroughputSpec{N: n, Executions: execs, Warmup: execs / 10, Seed: seed}
	if crash > 0 {
		spec.Crashed = []neko.ProcessID{neko.ProcessID(crash)}
	}
	if timeout > 0 {
		spec.FDMode = experiment.FDHeartbeat
		spec.TimeoutT = timeout
	}
	res, err := experiment.RunThroughputContext(ctx, spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "sequential consensus throughput (n=%d, %d chained executions):\n", n, execs)
	fmt.Fprintf(out, "  sustained rate      %.0f decisions/s\n", res.Rate)
	fmt.Fprintf(out, "  inter-decision gap  %.3f ms ± %.3f (90%% CI)\n", res.InterDecision.Mean(), res.InterDecision.CI(0.90))
	fmt.Fprintf(out, "  decided %d, aborted %d, %d events\n", res.Decided, res.Aborted, res.Events)
	return nil
}

// runTransient executes the §6 crash-transient extension.
func runTransient(ctx context.Context, out io.Writer, n, execs, crash int, timeout float64, seed uint64) error {
	if crash == 0 {
		crash = 1
	}
	if timeout == 0 {
		timeout = 20
	}
	res, err := experiment.RunCrashTransientContext(ctx, experiment.CrashTransientSpec{
		N: n, CrashID: neko.ProcessID(crash), CrashAfter: execs / 4, Executions: execs,
		TimeoutT: timeout, Seed: seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "crash transient (n=%d, p%d crashes after execution %d, T=%g ms):\n", n, crash, execs/4, timeout)
	fmt.Fprintf(out, "  steady state before crash  %.3f ms\n", res.SteadyBefore)
	fmt.Fprintf(out, "  transient peak             %.3f ms\n", res.PeakDuring)
	fmt.Fprintf(out, "  steady state after crash   %.3f ms\n", res.SteadyAfter)
	fmt.Fprintf(out, "  mean detection time T_D    %.2f ms\n", res.DetectionTime)
	for k, l := range res.Latency {
		marker := " "
		if k == execs/4 {
			marker = "  <- crash"
		}
		fmt.Fprintf(out, "  exec %3d: %8.3f ms%s\n", k, l, marker)
	}
	return nil
}

// cmdFdqos measures the heartbeat failure detector's quality of service
// (Chen et al. metrics, §3.4/§4) across a grid of timeout values, and
// prints the SAN failure-detector parameters derived from them — the
// measurement-to-model pipeline of §5.4. The grid is one study of
// Emulation points: rows stream out in grid order as soon as each
// campaign completes.
func cmdFdqos(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newCampaignFlags("fdqos", stderr)
	var (
		n     = fs.Int("n", 3, "number of processes")
		execs = fs.Int("execs", 500, "consensus executions per timeout value")
		grid  = fs.String("T", "1,2,3,5,7,10,14,20,30,40,70,100", "comma-separated timeout values in ms")
	)
	if err := fs.parse(args); err != nil {
		return err
	}
	var ts []float64
	study := campaign.NewStudy("fdqos")
	for _, s := range strings.Split(*grid, ",") {
		T, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return cliflags.Usagef("-T: bad timeout %q: %v", s, err)
		}
		if T <= 0 {
			// A zero timeout would silently select the oracle detector and
			// report meaningless QoS; every grid point must be a heartbeat.
			return cliflags.Usagef("-T: timeout values must be > 0, got %g", T)
		}
		ts = append(ts, T)
		study.Add(campaign.LatencyPoint{
			Name:       fmt.Sprintf("T=%g", T),
			N:          *n,
			Executions: *execs,
			TimeoutT:   T,
			Seed:       *fs.seed,
		})
	}
	fmt.Fprintf(stdout, "%8s %10s %10s %12s %10s %8s\n", "T [ms]", "T_MR [ms]", "T_M [ms]", "latency[ms]", "mf pairs", "aborted")
	_, err := fs.collect(ctx, study, campaign.WithProgress(func(_, _ int, r *campaign.Result) {
		res := r.Raw().(*experiment.LatencyResult)
		fmt.Fprintf(stdout, "%8.1f %10.2f %10.2f %12.3f %7d/%-3d %8d\n",
			ts[r.Index], res.QoS.TMR, res.QoS.TM, res.Digest.Mean(),
			res.QoS.MistakeFree, res.QoS.Pairs, res.Aborted)
	}))
	return err
}

// artifacts are the values repro's -what accepts.
var artifacts = []string{"all", "fig6", "fig7a", "fig7b", "table1", "fig8", "fig9a", "fig9b"}

// cmdRepro regenerates the tables and figures of the paper's evaluation
// section (§5) by the paper's own method, in three steps:
//
//  1. Calibrate once: measure unicast and broadcast end-to-end delays on
//     the emulated cluster and fit them (§5.1).
//  2. Run at most two studies: the measurement campaigns the selection
//     renders together with the SAN simulations fed with the fits, then
//     Fig. 9b's simulations, which also take the failure-detector QoS the
//     first study measured.
//  3. Render: experiment's Fig*/Table1 turn the results into plain text,
//     one block per artifact, with the paper's values quoted in notes.
//
// Every point pins its own seed (seed, seed+n, seed+⌊10⁴·t_send⌋,
// seed+1000n+⌊10T⌋, seed+17n+⌊T⌋), so an artifact's output depends
// neither on what else -what selects nor on -workers.
func cmdRepro(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newCampaignFlags("repro", stderr)
	var (
		what     = fs.String("what", "all", "which artifact to regenerate: "+strings.Join(artifacts, ", "))
		fidelity = fs.String("fidelity", "quick", "experiment sizes: quick or paper (paper is slow)")
		scale    = fs.Float64("scale", 1, "multiply workload sizes by this factor")
		quiet    = fs.Bool("q", false, "suppress progress output on stderr")
		plot     = fs.Bool("plot", false, "append ASCII plots of the figures")
	)
	if err := fs.parse(args); err != nil {
		return err
	}
	sel := strings.ToLower(*what)
	if !slices.Contains(artifacts, sel) {
		return cliflags.Usagef("unknown artifact %q (-what takes one of: %s)", *what, strings.Join(artifacts, ", "))
	}
	var f experiment.Fidelity
	switch *fidelity {
	case "quick":
		f = experiment.QuickFidelity()
	case "paper":
		f = experiment.PaperFidelity()
	default:
		return cliflags.Usagef("unknown fidelity %q (-fidelity takes quick or paper)", *fidelity)
	}
	if !(*scale > 0) || math.IsInf(*scale, 1) {
		return cliflags.Usagef("-scale %g: want a finite factor > 0", *scale)
	}
	if *scale != 1 {
		f = f.Scale(*scale)
	}
	progress := func(s string) {
		if !*quiet {
			fmt.Fprintln(stderr, s)
		}
	}
	show := func(fig *experiment.Figure, logX, logY bool) {
		fig.Fprint(stdout)
		if *plot {
			experiment.AsciiPlot(stdout, fig, 76, 20, logX, logY)
		}
		fmt.Fprintln(stdout)
	}
	run := func(s *reproStudy) ([]*campaign.Result, error) {
		if len(s.Points) == 0 {
			return nil, nil
		}
		return fs.collect(ctx, s.Study, campaign.WithProgress(func(done, total int, r *campaign.Result) {
			progress(fmt.Sprintf("%s [%d/%d] %s: latency %.3f ms, T_MR=%.3g ms, T_M=%.3g ms, aborted=%d",
				s.Name, done, total, r.Point, r.Latency.Mean, r.TMR, r.TM, r.Aborted))
		}))
	}

	r := &repro{f: f, seed: *fs.seed, sel: sel}
	if ns := r.fitNs(); ns != nil {
		progress("measuring end-to-end delays (§5.1)...")
		var err error
		if r.fits, err = experiment.MeasureFits(ctx, f, r.seed, ns); err != nil {
			return err
		}
	}
	if r.want("fig6") {
		show(experiment.Fig6(f, r.fits), false, false)
	}
	p := r.plan()
	res, err := run(p.reproStudy)
	if err != nil {
		return err
	}
	if r.want("fig7a") {
		show(experiment.Fig7a(f, digests(res, p.fig7a)), false, false)
	}
	if r.want("fig7b") {
		fig, best := experiment.Fig7b(f, digests(res, p.fig7b)[0], digests(res, p.fig7b[1:]))
		show(fig, false, false)
		progress(fmt.Sprintf("best-matching t_send: %g ms", best))
	}
	if r.want("table1") {
		var meas, sims [][]*metrics.Digest
		for s := range experiment.CrashScenarios {
			meas, sims = append(meas, digests(res, p.table1Meas[s])), append(sims, digests(res, p.table1Sims[s]))
		}
		experiment.Table1(f, meas, sims).Fprint(stdout)
		fmt.Fprintln(stdout)
	}
	points := p.class3Points(res)
	if r.want("fig8") {
		a, b := experiment.Fig8(points)
		show(a, true, false)
		show(b, true, false)
	}
	if r.want("fig9a") {
		show(experiment.Fig9a(points), true, true)
	}
	if r.want("fig9b") {
		sims, det, exp := r.qosPlan(points)
		res, err := run(sims)
		if err != nil {
			return err
		}
		show(experiment.Fig9b(f, points, digests(res, det), digests(res, exp)), true, true)
	}
	return nil
}

// repro is one `ctsan repro` invocation: its fidelity, seed and -what
// selection, and the fits its calibration measured.
type repro struct {
	f    experiment.Fidelity
	seed uint64
	sel  string
	fits *experiment.Fits
}

func (r *repro) want(id string) bool { return r.sel == "all" || r.sel == id }

// fitNs are the process counts whose broadcast delays the calibration
// fits — Fig. 6 plots 3 and 5, Fig. 7b simulates 5, Table 1 and Fig. 9b
// simulate the SimNs — or nil when the selection fits nothing.
func (r *repro) fitNs() []int {
	if !r.want("fig6") && !r.want("fig7b") && !r.want("table1") && !r.want("fig9b") {
		return nil
	}
	ns := slices.Concat([]int{3, 5}, r.f.SimNs)
	slices.Sort(ns)
	return slices.Compact(ns)
}

// measured is the class-1 campaign on n processes, or with crashed
// processes the class-2 one.
func (r *repro) measured(n int, crashed []int) campaign.LatencyPoint {
	return campaign.LatencyPoint{Name: fmt.Sprintf("meas n=%d crashed=%v", n, crashed),
		N: n, Executions: r.f.Executions, Crashed: crashed, Seed: r.seed}
}

// simulated is a SAN point on n processes whose network is the calibrated
// one; t_send 0 is the model's, the paper's 0.025 ms.
func (r *repro) simulated(name string, n int, tsend float64, crashed []int, seed uint64) campaign.SANPoint {
	return campaign.SANPoint{Name: name, N: n, Replicas: r.f.Replicas, TSend: tsend,
		Net:     &campaign.NetFit{Unicast: r.fits.Unicast, Broadcast: r.fits.Broadcast[n]},
		Crashed: crashed, Tmax: 1e6, Seed: seed}
}

// reproPlan is repro's first study and the indices of each artifact's
// points in it: per f.Ns (Fig. 7a; Table 1 per row of
// experiment.CrashScenarios, -1 where a size is not simulated), Fig. 7b's
// measurement then its simulation per f.TSendSweep value, and the (n, T)
// grid of class-3 campaigns, n-major.
type reproPlan struct {
	*reproStudy
	fig7a, fig7b, class3   []int
	table1Meas, table1Sims [][]int
}

// plan builds the first study from what the selection renders.
// Measurements come first: each is one chain of executions no idle
// worker can join, while the SAN points after them hand out replicas any
// worker can take, so they fill the study's tail.
func (r *repro) plan() *reproPlan {
	f := r.f
	p := &reproPlan{reproStudy: newReproStudy("repro")}
	if r.want("fig7a") {
		for _, n := range f.Ns {
			p.fig7a = append(p.fig7a, p.add(r.measured(n, nil)))
		}
	}
	if r.want("fig7b") {
		p.fig7b = append(p.fig7b, p.add(r.measured(5, nil)))
	}
	if r.want("table1") {
		for _, sc := range experiment.CrashScenarios {
			var row []int
			for _, n := range f.Ns {
				row = append(row, p.add(r.measured(n, sc.Crashed)))
			}
			p.table1Meas = append(p.table1Meas, row)
		}
	}
	for _, n := range f.Ns {
		for _, T := range f.TGrid {
			if r.want("fig8") || r.want("fig9a") || r.want("fig9b") && slices.Contains(f.SimNs, n) {
				p.class3 = append(p.class3, p.add(campaign.LatencyPoint{Name: fmt.Sprintf("meas n=%d T=%g", n, T),
					N: n, Executions: f.QoSExecs, TimeoutT: T, Seed: r.seed + uint64(n)*1000 + uint64(float64(T*10))}))
			}
		}
	}
	if r.want("fig7b") {
		for _, ts := range f.TSendSweep {
			p.fig7b = append(p.fig7b, p.add(r.simulated(fmt.Sprintf("sim n=5 tsend=%g", ts), 5, ts, nil, r.seed+uint64(float64(ts*1e4)))))
		}
	}
	if r.want("table1") {
		for _, sc := range experiment.CrashScenarios {
			var row []int
			for _, n := range f.Ns {
				i := -1
				if slices.Contains(f.SimNs, n) {
					i = p.add(r.simulated(fmt.Sprintf("sim n=%d crashed=%v", n, sc.Crashed), n, 0, sc.Crashed, r.seed+uint64(n)))
				}
				row = append(row, i)
			}
			p.table1Sims = append(p.table1Sims, row)
		}
	}
	return p
}

// class3Points pairs the class-3 grid with its results.
func (p *reproPlan) class3Points(res []*campaign.Result) []experiment.Class3Point {
	var points []experiment.Class3Point
	for _, i := range p.class3 {
		pt := p.Points[i].(campaign.LatencyPoint)
		points = append(points, experiment.Class3Point{N: pt.N, T: pt.TimeoutT, Res: res[i].Raw().(*experiment.LatencyResult)})
	}
	return points
}

// qosPlan builds the second study, Fig. 9b's: per class-3 point on SimNs
// processes that kept a latency sample, the model whose failure detectors
// take its measured QoS with deterministic and with exponential sojourns
// (§3.4) — one point when the QoS shows no mistake, or one the submodel
// cannot take, since the detectors are then accurate under either kind.
// det[i] and exp[i] index points[i]'s, -1 where it has none.
func (r *repro) qosPlan(points []experiment.Class3Point) (s *reproStudy, det, exp []int) {
	s = newReproStudy("repro-fig9b")
	for _, pt := range points {
		i, j := -1, -1
		if slices.Contains(r.f.SimNs, pt.N) && pt.Res.Digest.N() > 0 {
			sim := func(exponential bool) int {
				p := r.simulated("", pt.N, 0, nil, r.seed+uint64(pt.N)*17+uint64(pt.T))
				if q := pt.Res.QoS; q.Transitions != 0 && 0 < q.TM && q.TM < q.TMR {
					p.TMR, p.TM, p.FDExponential = q.TMR, q.TM, exponential
				}
				p.Name = fmt.Sprintf("sim n=%d T=%g exp=%t", pt.N, pt.T, p.FDExponential)
				return s.add(p)
			}
			i, j = sim(false), sim(true)
		}
		det, exp = append(det, i), append(exp, j)
	}
	return s, det, exp
}

// reproStudy is a study whose points are added once: a point two
// artifacts share (the no-crash campaigns of Fig. 7a and Table 1) is
// found by its PointHash, and add returns its index either way.
type reproStudy struct {
	*campaign.Study
	index map[string]int
}

func newReproStudy(name string) *reproStudy {
	return &reproStudy{Study: campaign.NewStudy(name), index: map[string]int{}}
}

func (s *reproStudy) add(p campaign.Point) int {
	h, err := campaign.PointHash(p)
	if i, ok := s.index[h]; ok {
		return i
	}
	s.Add(p)
	if err == nil { // a point that cannot be encoded is kept as it is: Run's freeze judges it
		s.index[h] = len(s.Points) - 1
	}
	return len(s.Points) - 1
}

// digests maps point indices to their results' latency digests, and -1
// to nil.
func digests(res []*campaign.Result, idx []int) []*metrics.Digest {
	out := make([]*metrics.Digest, len(idx))
	for i, j := range idx {
		if j < 0 {
			continue
		}
		switch raw := res[j].Raw().(type) {
		case *experiment.LatencyResult:
			out[i] = &raw.Digest
		case *san.TransientResult:
			out[i] = &raw.Digest
		}
	}
	return out
}
