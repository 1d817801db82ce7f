package scenario

import (
	"context"
	"fmt"

	"ctsan/internal/experiment"
	"ctsan/internal/fd"
	"ctsan/internal/metrics"
	"ctsan/internal/neko"
	"ctsan/internal/netsim"
	"ctsan/internal/rng"
	"ctsan/internal/stats"
	"ctsan/internal/trace"
)

// RunConfig tunes one replica of a scenario. The zero value takes the
// scenario's own defaults.
type RunConfig struct {
	// Executions overrides the scenario's per-replica execution count.
	Executions int
	// Seed is the replica's root random seed.
	Seed uint64
	// MaxRounds aborts a consensus execution after this many rounds
	// (0 = 256).
	MaxRounds int
	// Deadline force-closes an execution after this many ms (0 = 3·T+60
	// under the heartbeat detector, the harness default under the
	// oracle) so that partitions and crashes cannot hang a campaign.
	Deadline float64
	// Tracer, when non-nil, records structured execution events from
	// every layer (DES kernel, emulator, failure detectors, consensus)
	// into its ring; Result.Trace then carries the snapshot and
	// Result.Wrong the ground-truthed wrong suspicions for the explain
	// mode. The tracer is Reset and re-attached at the start of each run,
	// so one pooled tracer serves successive replicas without allocating.
	Tracer *trace.Tracer
}

// Result is the outcome of one scenario replica. Per-execution samples
// stream into the Digest as executions close, so a replica running
// millions of executions retains O(1) memory.
type Result struct {
	// Digest summarizes the first-decision latency of every decided
	// execution (ms); Rounds accumulates the deciding rounds.
	Digest metrics.Digest
	Rounds stats.Accumulator
	// Decided and Aborted partition the executions.
	Decided, Aborted int
	// Texp is the experiment duration (global ms); Events the DES events
	// executed.
	Texp   float64
	Events uint64
	// Timers is what the cluster's timers cost over the run.
	Timers netsim.TimerCounts
	// QoS holds the Chen et al. failure-detector metrics (heartbeat
	// scenarios only).
	QoS fd.QoS
	// Suspicions counts trust→suspect transitions across all observer
	// pairs; WrongSuspicions those whose subject was in fact up — the
	// paper's wrong suspicions (§5.4), here ground-truthed against the
	// scenario timeline.
	Suspicions, WrongSuspicions int
	// Trace and Wrong are populated only for traced runs
	// (RunConfig.Tracer): the captured event window and the individual
	// wrong suspicions it explains.
	Trace *trace.Trace
	Wrong []WrongSuspicion
}

// WrongSuspicion identifies one ground-truthed wrong suspicion: observer
// P suspected Q at local time At while the timeline says Q was up.
type WrongSuspicion struct {
	P, Q neko.ProcessID
	At   float64
}

// replica is a scenario configured onto the one replica harness
// (experiment.Harness): on top of a latency experiment it adds the
// post-rewind step that attaches the tracer and compiles the timeline
// onto the cluster, the timeline-driven up-set and gap, and
// ground-truthed suspicion counting over the run's fd.History. A campaign
// keeps one per worker, so steady-state execution constructs nothing per
// replica; run(seed) on a reused replica is bit-identical to a fresh
// construct-then-run from the same seed (TestRunReuseMatchesFresh). The
// harness comes from the worker's keyed set (hs): binding to a scenario
// takes the set's harness of that scenario's shape, so scenarios — and
// latency points — of equal shape share one assembly, across campaigns
// when the caller keeps the sets (RunCampaignOn).
type replica struct {
	s      *Scenario
	tracer *trace.Tracer
	hs     *experiment.Harnesses
	h      *experiment.Harness
	// plan is the run configuration check resolved for the scenario,
	// bound to this replica's hooks; only Seed changes between runs.
	// history, injRand and prog are retained so that run constructs
	// nothing: the transition log, the injection randomness stream
	// (reseeded in place) and the compiled timeline.
	plan    experiment.Plan
	phaseFn func(name string, at float64)
	history fd.History
	injRand rng.Stream
	prog    program
}

// Run executes one replica of the scenario and returns its result.
func Run(s *Scenario, cfg RunConfig) (*Result, error) {
	r, err := newReplica(s, cfg)
	if err != nil {
		return nil, err
	}
	return r.run(context.Background(), cfg.Seed)
}

// newReplica returns a replica of s under cfg on a harness set of its own.
func newReplica(s *Scenario, cfg RunConfig) (*replica, error) {
	shape, plan, err := check(s, cfg)
	if err != nil {
		return nil, err
	}
	r := &replica{hs: new(experiment.Harnesses)}
	return r, r.bind(s, shape, plan, cfg.Tracer)
}

// check resolves one replica of s under cfg into the configuration of
// the replica harness it runs on, and reports the first rule it breaks:
// the scenario's own (validateTimeline), a negative execution override,
// or the harness's (experiment.Check). The scenario's defaults apply
// first: its own execution count and, under the heartbeat detector, a
// deadline of 3·T + 60 ms, which outlasts a detection (~T + T_h).
func check(s *Scenario, cfg RunConfig) (experiment.Shape, experiment.Plan, error) {
	if err := s.validateTimeline(); err != nil {
		return experiment.Shape{}, experiment.Plan{}, err
	}
	if cfg.Executions < 0 {
		return experiment.Shape{}, experiment.Plan{}, fmt.Errorf("scenario %s: negative execution override %d", s.Name, cfg.Executions)
	}
	if cfg.Executions == 0 {
		cfg.Executions = s.Executions
	}
	if cfg.Deadline == 0 && s.TimeoutT > 0 {
		cfg.Deadline = float64(3*s.TimeoutT) + 60
	}
	params := netsim.DefaultParams(s.N)
	params.Crashed = s.InitialCrashed
	if s.PauseEvery != nil {
		params.PauseEvery = s.PauseEvery
	}
	if s.PauseDur != nil {
		params.PauseDur = s.PauseDur
	}
	shape := experiment.Shape{Params: params, TimeoutT: s.TimeoutT, PeriodTh: s.PeriodTh, MaxRounds: cfg.MaxRounds}
	plan := experiment.Plan{Label: "scenario " + s.Name, Executions: cfg.Executions, Gap: s.Gap, Deadline: cfg.Deadline}
	if err := experiment.Check(&shape, &plan); err != nil {
		return experiment.Shape{}, experiment.Plan{}, err
	}
	return shape, plan, nil
}

// bind points the replica at s, with the harness configuration check
// resolved for it, on the set's harness of that shape.
func (r *replica) bind(s *Scenario, shape experiment.Shape, plan experiment.Plan, tracer *trace.Tracer) error {
	h, err := r.hs.For(shape)
	if err != nil {
		return err
	}
	r.s, r.tracer, r.h = s, tracer, h
	r.phaseFn = r.onPhase
	r.history.Keep = true // the ground truth reads every suspicion's instant
	plan.History = &r.history
	plan.Up = r.prog.tl.UpAt
	plan.Prepare = r.prepare
	r.plan = plan
	return nil
}

// prepare is the scenario's post-rewind, pre-start step.
func (r *replica) prepare() error {
	// Attach the tracer after the rewind (which detaches) and before the
	// timeline compiles, so the injection-scheduling prefix is captured.
	// Tracing consumes no randomness and emits in DES execution order, so
	// the trace is a pure function of the replica seed (rule 6).
	if tr := r.tracer; tr != nil {
		tr.Reset()
		r.h.SetTracer(tr)
	}
	r.h.Root().ChildInto(&r.injRand, 2)
	if err := r.s.compileInto(&r.prog, r.h.Cluster(), &r.injRand, r.plan.Gap); err != nil {
		return err
	}
	// Workload phases arrive through the cluster's phase hook, so the gap
	// switch happens at the injected instant of simulated time.
	r.h.Cluster().OnPhase(r.phaseFn)
	return nil
}

func (r *replica) onPhase(_ string, at float64) { r.h.SetGap(r.prog.tl.GapAt(at)) }

// run rewinds the whole assembly to the given replica seed and executes
// the scenario once.
func (r *replica) run(ctx context.Context, seed uint64) (*Result, error) {
	r.history.Reset()
	r.plan.Seed = seed ^ 0x5ce7a51ed
	out, err := r.h.Run(ctx, r.plan)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Digest:  out.Digest,
		Rounds:  out.Rounds,
		Decided: out.Digest.N(),
		Aborted: out.Aborted,
		Texp:    out.Texp,
		Events:  out.Events,
		Timers:  out.Timers,
		QoS:     out.QoS,
	}
	for _, e := range r.history.Events() {
		if e.Suspected {
			res.Suspicions++
			if r.prog.tl.UpAt(e.Q, e.At) {
				res.WrongSuspicions++
				if r.tracer != nil {
					res.Wrong = append(res.Wrong, WrongSuspicion{P: e.P, Q: e.Q, At: e.At})
				}
			}
		}
	}
	if r.tracer != nil {
		res.Trace = r.tracer.Snapshot()
	}
	return res, nil
}
