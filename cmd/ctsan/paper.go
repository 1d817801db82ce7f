package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"ctsan/campaign"
	"ctsan/internal/cliflags"
	"ctsan/internal/experiment"
	"ctsan/internal/neko"
)

// The paper-reproduction commands: repro regenerates §5 from the figure
// functions; sanrun, testbed and fdqos each build one study from their
// flags — the SAN half, the measurement half, and the FD-QoS pipeline
// between them (§5.4).

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

// run executes the study on -workers goroutines, serving the debug
// listener for its duration when one was asked for.
func (f *campaignFlags) run(ctx context.Context, study *campaign.Study, opts ...campaign.Option) error {
	stopDebug, err := cliflags.StartDebug(*f.debugAddr, func(format string, args ...any) {
		fmt.Fprintf(f.Output(), f.Name()+": "+format+"\n", args...)
	})
	if err != nil {
		return err
	}
	defer stopDebug()
	return campaign.Run(ctx, study, append(opts, campaign.WithWorkers(*f.workers))...)
}

// collect is run returning every result in point order.
func (f *campaignFlags) collect(ctx context.Context, study *campaign.Study) ([]*campaign.Result, error) {
	var c campaign.Collect
	if err := f.run(ctx, study, campaign.WithSink(&c)); err != nil {
		return nil, err
	}
	return c.Results, nil
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
	if *asJSON {
		return fs.run(ctx, study, campaign.WithSink(campaign.NewJSONLWriter(stdout)))
	}
	results, err := fs.collect(ctx, study)
	if err != nil {
		return err
	}
	r := results[0]
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
// harness directly. (Named injection scenarios are `ctsan scenario run`.)
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
	return fs.run(ctx, study, campaign.WithProgress(func(_, _ int, r *campaign.Result) {
		res := r.Raw().(*experiment.LatencyResult)
		fmt.Fprintf(stdout, "%8.1f %10.2f %10.2f %12.3f %7d/%-3d %8d\n",
			ts[r.Index], res.QoS.TMR, res.QoS.TM, res.Digest.Mean(),
			res.QoS.MistakeFree, res.QoS.Pairs, res.Aborted)
	}))
}

// artifacts are the values repro's -what accepts.
var artifacts = []string{"all", "fig6", "fig7a", "fig7b", "table1", "fig8", "fig9a", "fig9b"}

// cmdRepro regenerates every table and figure of the paper's evaluation
// section (§5) from this repository's implementations: measurements on
// the emulated cluster and transient simulations of the SAN model.
// Output is plain text: one block per figure/table, with the paper's
// reference values quoted in notes for comparison.
func cmdRepro(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newCampaignFlags("repro", stderr)
	var (
		what     = fs.String("what", "all", "which artifact to regenerate: "+strings.Join(artifacts, ", "))
		fidelity = fs.String("fidelity", "quick", "experiment sizes: quick or paper (paper is slow)")
		scale    = fs.Float64("scale", 1, "multiply workload sizes by this factor")
		quiet    = fs.Bool("q", false, "suppress progress output on stderr")
		plot     = fs.Bool("plot", false, "append ASCII plots of the figures")
		seed     = fs.seed
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
	if *scale != 1 {
		f = f.Scale(*scale)
	}
	f.Workers = *fs.workers
	progress := func(s string) {
		if !*quiet {
			fmt.Fprintln(stderr, s)
		}
	}
	want := func(id string) bool { return sel == "all" || sel == id }
	show := func(fig *experiment.Figure, logX, logY bool) {
		fig.Fprint(stdout)
		if *plot {
			experiment.AsciiPlot(stdout, fig, 76, 20, logX, logY)
		}
		fmt.Fprintln(stdout)
	}

	if want("fig6") {
		progress("measuring end-to-end delays (Fig. 6)...")
		fig, _, err := experiment.Fig6(ctx, f, *seed)
		if err != nil {
			return err
		}
		show(fig, false, false)
	}
	if want("fig7a") {
		progress("running class-1 latency campaigns (Fig. 7a)...")
		fig, _, err := experiment.Fig7a(ctx, f, *seed)
		if err != nil {
			return err
		}
		show(fig, false, false)
	}
	if want("fig7b") {
		progress("sweeping t_send in the SAN model (Fig. 7b)...")
		fig, best, err := experiment.Fig7b(ctx, f, *seed)
		if err != nil {
			return err
		}
		show(fig, false, false)
		progress(fmt.Sprintf("best-matching t_send: %g ms", best))
	}
	if want("table1") {
		progress("running crash scenarios (Table 1)...")
		tab, err := experiment.Table1(ctx, f, *seed)
		if err != nil {
			return err
		}
		tab.Fprint(stdout)
		fmt.Fprintln(stdout)
	}
	if want("fig8") || want("fig9a") || want("fig9b") {
		progress("running class-3 campaigns (Figs. 8 and 9)...")
		points, err := experiment.RunClass3(ctx, f, *seed, progress)
		if err != nil {
			return err
		}
		if want("fig8") {
			a, b := experiment.Fig8(points)
			show(a, true, false)
			show(b, true, false)
		}
		if want("fig9a") {
			show(experiment.Fig9a(points), true, true)
		}
		if want("fig9b") {
			progress("running SAN simulations with measured QoS (Fig. 9b)...")
			fig, err := experiment.Fig9b(ctx, points, f, *seed)
			if err != nil {
				return err
			}
			show(fig, true, true)
		}
	}
	return nil
}
