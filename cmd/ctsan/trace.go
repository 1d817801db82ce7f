package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"

	"ctsan/internal/cliflags"
	"ctsan/internal/scenario"
	"ctsan/internal/trace"
)

// cmdScenarioTrace runs one scenario with the execution tracer attached,
// dumping the captured events as JSONL (and optionally a Chrome
// trace_event file, or wrong-suspicion explanations).
func cmdScenarioTrace(ctx context.Context, args []string, out, stderr io.Writer) error {
	fs := newCampaignFlags("scenario trace", stderr)
	var (
		replicas = fs.Int("replicas", 1, "independent replicas to trace")
		execs    = fs.Int("execs", 0, "consensus executions per replica (0 = per-scenario default)")
		specFile = fs.String("spec", "", "path to a JSON scenario definition to trace")
		outFile  = fs.String("o", "", "write the JSONL trace here instead of stdout")
		chrome   = fs.String("chrome", "", "also write a Chrome trace_event file (load in Perfetto or chrome://tracing)")
		explain  = fs.Bool("explain", false, "print causal event windows around wrong suspicions instead of the raw trace")
		window   = fs.Float64("window", 50, "milliseconds of trace shown before each wrong suspicion with -explain")
		cap      = fs.Int("cap", 0, "per-replica trace ring capacity in events (0 = default)")
	)
	if err := fs.parse(args); err != nil {
		return err
	}
	if *cap < 0 {
		return cliflags.Usagef("-cap %d: want 0 (the default ring) or a positive capacity", *cap)
	}
	s, err := traceScenario(*specFile, fs.Args())
	if err != nil {
		return err
	}
	reps, err := scenario.RunTraced(ctx, scenario.TraceSpec{
		Scenario:   s,
		Replicas:   *replicas,
		Executions: *execs,
		Workers:    *fs.workers,
		Seed:       *fs.seed,
		Cap:        *cap,
	})
	if err != nil {
		return err
	}
	if *chrome != "" {
		if err := writeChrome(*chrome, reps); err != nil {
			return err
		}
	}
	if *explain {
		return writeExplanations(out, reps, *window)
	}
	jsonl := func(w io.Writer) error {
		for _, r := range reps {
			if err := r.Result.Trace.WriteJSONL(w, r.Replica); err != nil {
				return err
			}
		}
		return nil
	}
	if *outFile != "" {
		return writeFile(*outFile, jsonl)
	}
	return jsonl(out)
}

// writeFile creates path and streams write's output into it through a
// buffer. The flush and the close are part of the write: an error there
// (a full disk shows up no earlier) fails the command.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// traceScenario resolves the single scenario to trace: either the -spec
// file or exactly one registered name.
func traceScenario(specFile string, names []string) (*scenario.Scenario, error) {
	if specFile != "" {
		if len(names) > 0 {
			return nil, cliflags.Usagef("give -spec or one scenario name, not both")
		}
		data, err := os.ReadFile(specFile)
		if err != nil {
			return nil, err
		}
		return scenario.LoadJSON(data)
	}
	if len(names) != 1 {
		return nil, cliflags.Usagef("need exactly one scenario name or -spec (known: %v)", scenario.Names())
	}
	return scenario.Get(names[0])
}

// writeChrome dumps every replica's trace into one Chrome trace_event
// document: replicas become pids, simulated processes become tids.
func writeChrome(path string, reps []*scenario.TracedReplica) error {
	return writeFile(path, func(w io.Writer) error {
		cw, err := trace.NewChromeWriter(w)
		if err != nil {
			return err
		}
		for _, r := range reps {
			if err := cw.Add(r.Replica, r.Result.Trace); err != nil {
				return err
			}
		}
		return cw.Close()
	})
}

// writeExplanations prints causal windows for every ground-truthed wrong
// suspicion across the traced replicas, or a note when there were none.
func writeExplanations(w io.Writer, reps []*scenario.TracedReplica, windowMS float64) error {
	total := 0
	for _, r := range reps {
		n, err := scenario.WriteExplain(w, r, windowMS)
		if err != nil {
			return err
		}
		total += n
	}
	if total == 0 {
		_, err := fmt.Fprintln(w, "no wrong suspicions in any traced replica")
		return err
	}
	return nil
}
