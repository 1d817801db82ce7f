package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"ctsan/campaign"
	"ctsan/internal/cliflags"
	"ctsan/internal/scenario"
)

// cmdScenarioList renders the registry listing, one line per scenario.
// The listing is data (scenario.List) — the same records the campaign
// service serves at /api/v1/scenarios.
func cmdScenarioList(_ context.Context, args []string, stdout, stderr io.Writer) error {
	if err := cliflags.Parse(flagSet("scenario list", stderr), args); err != nil {
		return err
	}
	for _, info := range scenario.List() {
		fmt.Fprintf(stdout, "%-18s n=%-2d execs=%-4d %s\n", info.Name, info.N, info.Executions, firstSentence(info.Doc))
	}
	return nil
}

// cmdScenarioDescribe prints the docs, cluster shape and timeline of each
// named scenario.
func cmdScenarioDescribe(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flagSet("scenario describe", stderr)
	if err := cliflags.Parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return cliflags.Usagef("need at least one scenario name (known: %v)", scenario.Names())
	}
	infos := map[string]scenario.Info{}
	for _, info := range scenario.List() {
		infos[info.Name] = info
	}
	for _, name := range fs.Args() {
		s, err := scenario.Get(name)
		if err != nil {
			return err
		}
		info := infos[name] // the effective gap and period
		fd := "perfect oracle"
		if info.TimeoutT > 0 {
			fd = fmt.Sprintf("heartbeat T=%g ms, Th=%g ms", info.TimeoutT, info.PeriodTh)
		}
		fmt.Fprintf(stdout, "%s\n  %s\n  n=%d, %d executions/replica, base gap %g ms, FD: %s\n",
			s.Name, s.Doc, s.N, s.Executions, info.Gap, fd)
		if len(s.InitialCrashed) > 0 {
			fmt.Fprintf(stdout, "  initially crashed: %v\n", s.InitialCrashed)
		}
		if len(s.Events) == 0 {
			fmt.Fprintf(stdout, "  timeline: (none)\n")
			continue
		}
		fmt.Fprintf(stdout, "  timeline:\n")
		for _, e := range s.Events {
			fmt.Fprintf(stdout, "    t=%-7g %s\n", e.At, describeEvent(e))
		}
	}
	return nil
}

func describeEvent(e scenario.Event) string {
	switch e.Kind {
	case scenario.KindCrash:
		return fmt.Sprintf("crash p%d", e.P)
	case scenario.KindRecover:
		return fmt.Sprintf("recover p%d", e.P)
	case scenario.KindPartition:
		return fmt.Sprintf("partition %v", e.Groups)
	case scenario.KindHeal:
		return "heal partition"
	case scenario.KindLink:
		s := fmt.Sprintf("degrade link p%d→p%d loss=%g", e.From, e.To, e.Loss)
		if e.Extra != nil {
			s += fmt.Sprintf(" extra=%v", e.Extra)
		}
		if e.Until > 0 {
			s += fmt.Sprintf(" until t=%g", e.Until)
		}
		return s
	case scenario.KindLinkClear:
		return fmt.Sprintf("clear link p%d→p%d", e.From, e.To)
	case scenario.KindPauseStorm:
		host := "all hosts"
		if e.P != 0 {
			host = fmt.Sprintf("p%d", e.P)
		}
		return fmt.Sprintf("pause storm on %s until t=%g (every %v, dur %v)", host, e.Until, e.Every, e.Dur)
	case scenario.KindWorkload:
		return fmt.Sprintf("workload phase %q: gap %g ms", e.Label, e.Gap)
	}
	return string(e.Kind)
}

// cmdScenarioRun executes the campaign and writes the report (table or
// JSON) to stdout.
func cmdScenarioRun(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newCampaignFlags("scenario run", stderr)
	var (
		replicas = fs.Int("replicas", 1, "independent replicas per scenario")
		execs    = fs.Int("execs", 0, "consensus executions per replica (0 = per-scenario default)")
		asJSON   = cliflags.JSON(fs.FlagSet)
		specFile = fs.String("spec", "", "path to a JSON scenario definition to run")
	)
	fs.debugAddr = cliflags.DebugAddr(fs.FlagSet)
	if err := fs.parse(args); err != nil {
		return err
	}
	study := campaign.NewStudy("scenario-run")
	if *specFile != "" {
		data, err := os.ReadFile(*specFile)
		if err != nil {
			return err
		}
		study.Add(campaign.ScenarioPoint{
			SpecJSON:   data,
			Replicas:   *replicas,
			Executions: *execs,
			Seed:       *fs.seed,
		})
	}
	for _, name := range fs.Args() {
		study.Add(campaign.ScenarioPoint{
			Name:       name,
			Replicas:   *replicas,
			Executions: *execs,
			Seed:       *fs.seed,
		})
	}
	if len(study.Points) == 0 {
		return cliflags.Usagef("need scenario names or -spec (known: %v)", scenario.Names())
	}
	results, err := fs.collect(ctx, study)
	if err != nil {
		return err
	}
	reports := make([]*scenario.Report, len(results))
	for i, r := range results {
		reports[i] = r.Raw().(*scenario.Report)
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(reports)
	}
	scenario.ReportTable(reports).Fprint(stdout)
	return nil
}

// firstSentence truncates a doc string at its first sentence end.
func firstSentence(doc string) string {
	for i := 0; i+1 < len(doc); i++ {
		if doc[i] == ':' || (doc[i] == '.' && doc[i+1] == ' ') {
			return doc[:i]
		}
	}
	return doc
}
