package scenario

import (
	"context"
	"fmt"

	"ctsan/internal/experiment"
	"ctsan/internal/metrics"
	"ctsan/internal/parallel"
	"ctsan/internal/rng"
)

// CampaignSpec fans a scenario × replica grid across the worker pool.
type CampaignSpec struct {
	Scenarios []*Scenario
	// Replicas is the number of independent replicas per scenario
	// (default 1). Replica r of scenario s draws from a child stream
	// keyed by the flat grid index, so the campaign is bit-identical at
	// any worker count.
	Replicas int
	// Executions overrides every scenario's per-replica execution count
	// (0 keeps each scenario's own default).
	Executions int
	// Workers caps the goroutines (<= 0: one per CPU, 1: serial).
	Workers int
	// Seed is the campaign root seed.
	Seed uint64
	// MaxRounds / Deadline pass through to RunConfig (0 = defaults).
	MaxRounds int
	Deadline  float64
}

// Report aggregates all replicas of one scenario.
type Report struct {
	Scenario string `json:"scenario"`
	Doc      string `json:"doc,omitempty"`
	Replicas int    `json:"replicas"`
	// Decided / Aborted count executions across all replicas.
	Decided int `json:"decided"`
	Aborted int `json:"aborted"`
	// Latency percentiles and moments over all decided executions, ms.
	Mean float64 `json:"mean_ms"`
	CI90 float64 `json:"ci90_ms"`
	P50  float64 `json:"p50_ms"`
	P90  float64 `json:"p90_ms"`
	P99  float64 `json:"p99_ms"`
	Max  float64 `json:"max_ms"`
	// DecisionsPerSec is the decision throughput over total simulated
	// time; Texp that total time (ms).
	DecisionsPerSec float64 `json:"decisions_per_sec"`
	Texp            float64 `json:"texp_ms"`
	// Suspicion accounting across replicas: total trust→suspect
	// transitions, how many were wrong (subject was up), and the wrong
	// rate per second of simulated time.
	Suspicions      int     `json:"suspicions"`
	WrongSuspicions int     `json:"wrong_suspicions"`
	WrongSuspPerSec float64 `json:"wrong_susp_per_sec"`
	// TMR / TM are the mean Chen et al. QoS metrics across replicas
	// (heartbeat scenarios; 0 otherwise).
	TMR float64 `json:"tmr_ms,omitempty"`
	TM  float64 `json:"tm_ms,omitempty"`
	// DESEvents is the total discrete-event count (cost metric).
	DESEvents uint64 `json:"des_events"`

	// Digest holds the streaming latency statistics (moments and
	// quantiles) merged across all replicas in grid order, for
	// programmatic use; it is not part of the JSON report schema. It
	// subsumes the raw per-execution latency slice earlier revisions
	// retained here: below the exact cap its quantiles are bit-identical
	// to the old sort-the-slice path, and Digest.Exact still exposes the
	// ordered samples.
	Digest metrics.Digest `json:"-"`
}

// RunCampaignContext executes every (scenario, replica) pair of the grid
// on the deterministic worker pool and folds per-scenario reports in grid
// order. Results are bit-identical at any worker count: each (scenario,
// replica) pair owns a child random stream keyed by its flat grid index,
// and the fold is serial. ctx cancels between grid units and between the
// executions inside each replica; a canceled campaign returns ctx.Err().
//
// The spec is validated up front: an empty scenario list, a non-positive
// replica count, a negative execution override, and invalid scenarios all
// fail with a descriptive error instead of silently producing an empty
// report.
func RunCampaignContext(ctx context.Context, spec CampaignSpec) ([]*Report, error) {
	return parallel.Do(ctx, spec.Workers, func(p *parallel.Pool, w int) ([]*Report, error) {
		return RunCampaignOn(ctx, p, w, make([]experiment.Harnesses, p.Workers()), spec)
	})
}

// RunCampaignOn is RunCampaignContext nested in the unit its caller is
// running as worker `worker` of p (spec.Workers is not consulted): the
// grid units go to the caller and to every pool worker with no unit of
// its own left. sets holds one harness set per pool worker; worker w takes
// every harness it needs from sets[w] — its own, whoever opened the
// campaign — and leaves what it assembled there. A caller running many
// campaigns — campaign.Run, one per Scenario point — passes the same sets
// each time, so a shape is assembled once per worker rather than once per
// campaign; the reports do not depend on what the sets held.
func RunCampaignOn(ctx context.Context, p *parallel.Pool, worker int, sets []experiment.Harnesses, spec CampaignSpec) ([]*Report, error) {
	if len(sets) < p.Workers() {
		return nil, fmt.Errorf("scenario: %d harness sets for a pool of %d workers", len(sets), p.Workers())
	}
	if len(spec.Scenarios) == 0 {
		return nil, fmt.Errorf("scenario: campaign with no scenarios (nothing to run)")
	}
	if spec.Replicas == 0 {
		spec.Replicas = 1
	}
	if spec.Replicas < 1 {
		return nil, fmt.Errorf("scenario: need at least 1 replica per scenario, got %d", spec.Replicas)
	}
	if spec.Executions < 0 {
		return nil, fmt.Errorf("scenario: negative execution override %d", spec.Executions)
	}
	for i, s := range spec.Scenarios {
		if s == nil {
			return nil, fmt.Errorf("scenario: campaign scenario %d is nil", i)
		}
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}
	seeds := rng.New(spec.Seed ^ 0xca3faa16)
	units := len(spec.Scenarios) * spec.Replicas
	// Each worker owns one reusable replica (timeline buffers, transition
	// log) over its harness set and rewinds it per grid unit instead of
	// constructing per replica; moving to a different scenario rebinds it
	// to the set's harness of the new shape. Reused and fresh assemblies
	// are bit-identical (see replica), so the campaign stays deterministic
	// at any worker count.
	cfg := RunConfig{Executions: spec.Executions, MaxRounds: spec.MaxRounds, Deadline: spec.Deadline}
	reps := make([]replica, len(sets))
	for w := range reps {
		reps[w].hs = &sets[w]
	}
	results := make([]*Result, units)
	err := p.ForEachChunk(ctx, worker, units, 1, func(w, i int) (err error) {
		s := spec.Scenarios[i/spec.Replicas]
		rep := &reps[w]
		if rep.s != s {
			if err := rep.bind(s, cfg); err != nil {
				return err
			}
		}
		results[i], err = rep.run(ctx, seeds.Child(uint64(i)).Uint64())
		return err
	})
	if err != nil {
		return nil, err
	}
	reports := make([]*Report, len(spec.Scenarios))
	for si, s := range spec.Scenarios {
		rep := &Report{Scenario: s.Name, Doc: s.Doc, Replicas: spec.Replicas}
		var tmr, tm float64
		// Merge per-replica digests serially in grid order: exact-mode
		// merges replay samples, so the report statistics are bit-identical
		// to the historical fold over the concatenated latency slice (and
		// to any worker count).
		for ri := 0; ri < spec.Replicas; ri++ {
			res := results[si*spec.Replicas+ri]
			rep.Digest.Merge(&res.Digest)
			rep.Decided += res.Decided
			rep.Aborted += res.Aborted
			rep.Texp += res.Texp
			rep.Suspicions += res.Suspicions
			rep.WrongSuspicions += res.WrongSuspicions
			rep.DESEvents += res.Events
			tmr += res.QoS.TMR
			tm += res.QoS.TM
		}
		ps := rep.Digest.Quantiles(0.50, 0.90, 0.99)
		rep.Mean = rep.Digest.Mean()
		rep.CI90 = rep.Digest.CI(0.90)
		rep.P50, rep.P90, rep.P99 = ps[0], ps[1], ps[2]
		rep.Max = rep.Digest.Max()
		if rep.Texp > 0 {
			rep.DecisionsPerSec = float64(rep.Decided) / rep.Texp * 1000
			rep.WrongSuspPerSec = float64(rep.WrongSuspicions) / rep.Texp * 1000
		}
		if s.TimeoutT > 0 {
			rep.TMR = tmr / float64(spec.Replicas)
			rep.TM = tm / float64(spec.Replicas)
		}
		reports[si] = rep
	}
	return reports, nil
}

// ReportTable renders campaign reports as an aligned text table using the
// experiment report machinery.
func ReportTable(reports []*Report) *experiment.Table {
	t := &experiment.Table{
		ID:    "SCENARIO",
		Title: "scenario campaign: latency, wrong suspicions, decision throughput",
		Header: []string{"scenario", "decided", "aborted", "mean[ms]", "p50", "p90", "p99",
			"dec/s", "wrong-susp", "wrong/s"},
	}
	for _, r := range reports {
		t.Rows = append(t.Rows, []string{
			r.Scenario,
			fmt.Sprintf("%d", r.Decided),
			fmt.Sprintf("%d", r.Aborted),
			fmt.Sprintf("%.3f", r.Mean),
			fmt.Sprintf("%.3f", r.P50),
			fmt.Sprintf("%.3f", r.P90),
			fmt.Sprintf("%.3f", r.P99),
			fmt.Sprintf("%.1f", r.DecisionsPerSec),
			fmt.Sprintf("%d/%d", r.WrongSuspicions, r.Suspicions),
			fmt.Sprintf("%.2f", r.WrongSuspPerSec),
		})
	}
	return t
}
