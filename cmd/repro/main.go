// Command repro regenerates every table and figure of the paper's
// evaluation section (§5) from this repository's implementations:
// measurements on the emulated cluster and transient simulations of the
// SAN model.
//
// Usage:
//
//	repro [-what all|fig6|fig7a|fig7b|table1|fig8|fig9a|fig9b]
//	      [-fidelity quick|paper] [-scale k] [-seed s] [-workers w]
//
// Output is plain text: one block per figure/table, with the paper's
// reference values quoted in notes for comparison. Interrupting the run
// (Ctrl-C) cancels the in-flight campaigns cleanly at the next execution
// boundary.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"strings"

	"ctsan/internal/cliflags"
	"ctsan/internal/experiment"
)

// artifacts are the values -what accepts.
var artifacts = []string{"all", "fig6", "fig7a", "fig7b", "table1", "fig8", "fig9a", "fig9b"}

func main() {
	var (
		what     = flag.String("what", "all", "which artifact to regenerate: "+strings.Join(artifacts, ", "))
		fidelity = flag.String("fidelity", "quick", "experiment sizes: quick or paper (paper is slow)")
		scale    = flag.Float64("scale", 1, "multiply workload sizes by this factor")
		seed     = cliflags.Seed(flag.CommandLine)
		workers  = cliflags.Workers(flag.CommandLine)
		quiet    = flag.Bool("q", false, "suppress progress output on stderr")
		plot     = flag.Bool("plot", false, "append ASCII plots of the figures")
	)
	flag.Parse()

	sel := strings.ToLower(*what)
	if !slices.Contains(artifacts, sel) {
		fmt.Fprintf(os.Stderr, "repro: unknown artifact %q (-what takes one of: %s)\n", *what, strings.Join(artifacts, ", "))
		os.Exit(2)
	}
	var f experiment.Fidelity
	switch *fidelity {
	case "quick":
		f = experiment.QuickFidelity()
	case "paper":
		f = experiment.PaperFidelity()
	default:
		fmt.Fprintf(os.Stderr, "repro: unknown fidelity %q\n", *fidelity)
		os.Exit(2)
	}
	if *scale != 1 {
		f = f.Scale(*scale)
	}
	f.Workers = *workers
	progress := func(s string) {
		if !*quiet {
			fmt.Fprintln(os.Stderr, s)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	want := func(id string) bool { return sel == "all" || sel == id }
	if err := run(ctx, f, *seed, want, progress, *plot); err != nil {
		cliflags.Fail("repro", err)
	}
}

func run(ctx context.Context, f experiment.Fidelity, seed uint64, want func(string) bool, progress func(string), plot bool) error {
	out := os.Stdout
	show := func(fig *experiment.Figure, logX, logY bool) {
		fig.Fprint(out)
		if plot {
			experiment.AsciiPlot(out, fig, 76, 20, logX, logY)
		}
		fmt.Fprintln(out)
	}
	if want("fig6") {
		progress("measuring end-to-end delays (Fig. 6)...")
		fig, _, err := experiment.Fig6(ctx, f, seed)
		if err != nil {
			return err
		}
		show(fig, false, false)
	}
	if want("fig7a") {
		progress("running class-1 latency campaigns (Fig. 7a)...")
		fig, _, err := experiment.Fig7a(ctx, f, seed)
		if err != nil {
			return err
		}
		show(fig, false, false)
	}
	if want("fig7b") {
		progress("sweeping t_send in the SAN model (Fig. 7b)...")
		fig, best, err := experiment.Fig7b(ctx, f, seed)
		if err != nil {
			return err
		}
		show(fig, false, false)
		progress(fmt.Sprintf("best-matching t_send: %g ms", best))
	}
	if want("table1") {
		progress("running crash scenarios (Table 1)...")
		tab, err := experiment.Table1(ctx, f, seed)
		if err != nil {
			return err
		}
		tab.Fprint(out)
		fmt.Fprintln(out)
	}
	if want("fig8") || want("fig9a") || want("fig9b") {
		progress("running class-3 campaigns (Figs. 8 and 9)...")
		points, err := experiment.RunClass3(ctx, f, seed, progress)
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
			fig, err := experiment.Fig9b(ctx, points, f, seed)
			if err != nil {
				return err
			}
			show(fig, true, true)
		}
	}
	return nil
}
