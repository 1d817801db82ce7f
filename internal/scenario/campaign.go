package scenario

import (
	"context"
	"fmt"

	"ctsan/internal/experiment"
	"ctsan/internal/metrics"
	"ctsan/internal/parallel"
	"ctsan/internal/rng"
	"ctsan/internal/trace"
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
// The spec is checked (Check) before any replica runs.
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
	results, err := runUnits(ctx, p, worker, sets, &spec, nil)
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

// Check resolves the spec as RunCampaignOn does before it runs anything —
// Replicas 0 selects 1 — and reports the first rule it breaks: no
// scenarios, fewer than one replica, or a scenario that cannot run under
// the spec's overrides (Validate's rules, a negative execution override,
// the harness's guards). For each scenario, in order, it returns the
// shape and plan of the replica harness its replicas run on.
func (spec *CampaignSpec) Check() ([]experiment.Shape, []experiment.Plan, error) {
	if len(spec.Scenarios) == 0 {
		return nil, nil, fmt.Errorf("scenario: campaign with no scenarios (nothing to run)")
	}
	if spec.Replicas == 0 {
		spec.Replicas = 1
	}
	if spec.Replicas < 1 {
		return nil, nil, fmt.Errorf("scenario: need at least 1 replica per scenario, got %d", spec.Replicas)
	}
	cfg := RunConfig{Executions: spec.Executions, MaxRounds: spec.MaxRounds, Deadline: spec.Deadline}
	shapes := make([]experiment.Shape, len(spec.Scenarios))
	plans := make([]experiment.Plan, len(spec.Scenarios))
	for i, s := range spec.Scenarios {
		if s == nil {
			return nil, nil, fmt.Errorf("scenario: campaign scenario %d is nil", i)
		}
		var err error
		if shapes[i], plans[i], err = check(s, cfg); err != nil {
			return nil, nil, err
		}
	}
	return shapes, plans, nil
}

// runUnits is the campaign replica loop: it checks spec (Check, which
// defaults its replica count in place) and runs every (scenario, replica)
// unit of the grid on p, nested in the unit its caller is running as
// worker `worker`, returning the results in grid order. With newTracer
// set, each worker's replica records into a ring of its own, made on the
// worker's first unit and rewound per replica.
func runUnits(ctx context.Context, p *parallel.Pool, worker int, sets []experiment.Harnesses, spec *CampaignSpec, newTracer func() *trace.Tracer) ([]*Result, error) {
	if len(sets) < p.Workers() {
		return nil, fmt.Errorf("scenario: %d harness sets for a pool of %d workers", len(sets), p.Workers())
	}
	shapes, plans, err := spec.Check()
	if err != nil {
		return nil, err
	}
	seeds := unitSeeds(spec.Seed)
	units := len(spec.Scenarios) * spec.Replicas
	// Each worker owns one reusable replica (timeline buffers, transition
	// log, trace ring) over its harness set and rewinds it per grid unit
	// instead of constructing per replica; moving to a different scenario
	// rebinds it to the set's harness of the new shape. Reused and fresh
	// assemblies are bit-identical (see replica), so the campaign stays
	// deterministic at any worker count.
	reps := make([]replica, len(sets))
	for w := range reps {
		reps[w].hs = &sets[w]
	}
	results := make([]*Result, units)
	err = p.ForEachChunk(ctx, worker, units, 1, func(w, i int) (err error) {
		si := i / spec.Replicas
		rep := &reps[w]
		if s := spec.Scenarios[si]; rep.s != s {
			tracer := rep.tracer
			if tracer == nil && newTracer != nil {
				tracer = newTracer()
			}
			if err := rep.bind(s, shapes[si], plans[si], tracer); err != nil {
				return err
			}
		}
		results[i], err = rep.run(ctx, seeds.Child(uint64(i)).Uint64())
		return err
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// unitSeeds is the stream whose Child(i) seeds grid unit i of a campaign.
func unitSeeds(seed uint64) *rng.Stream { return rng.New(seed ^ 0xca3faa16) }

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
