package campaign

import (
	"context"
	"errors"
	"fmt"
	"math"

	"ctsan/internal/experiment"
	"ctsan/internal/fit"
	"ctsan/internal/neko"
	"ctsan/internal/sanmodel"
	"ctsan/internal/scenario"
)

// LatencyPoint is an Emulation-engine point: a latency measurement
// campaign on the emulated cluster (§4) — sequential consensus executions
// separated by Gap, under a perfect-oracle failure detector or, when
// TimeoutT > 0, the real push heartbeat detector of §2.2.
type LatencyPoint struct {
	// Name labels the point in results (default "emulation[index]").
	Name string
	// N is the number of processes (≥ 2).
	N int
	// Executions is the number of sequential consensus executions
	// (paper: 5000 for classes 1/2, 1000 for class 3).
	Executions int
	// Gap separates execution starts in ms (0 = 10, §4); Warmup delays
	// the first execution (0 = 20 ms).
	Gap    float64
	Warmup float64
	// TimeoutT > 0 runs the heartbeat failure detector with timeout T;
	// PeriodTh is the heartbeat period (0 = 0.7·T, §5.4). TimeoutT == 0
	// uses the perfect oracle, which reads no period.
	TimeoutT float64
	PeriodTh float64
	// Crashed lists initially crashed processes (class-2 runs).
	Crashed []int
	// MaxRounds (0 = 256) and Deadline ms (0 = 500) guard executions.
	MaxRounds int
	Deadline  float64
	// Seed pins this point's campaign seed; 0 derives one from the study
	// seed and the point index.
	Seed uint64
}

// Engine implements Point.
func (p LatencyPoint) Engine() Engine { return Emulation }

// Label implements Point.
func (p LatencyPoint) Label() string { return p.Name }

func (p LatencyPoint) freeze(o *options, index int) (Point, prepared, error) {
	p.Name = label(p, index)
	p.Seed = o.pointSeed(index, p.Seed)
	spec := p.spec()
	shape, plan, err := spec.Check()
	if err != nil {
		return nil, prepared{}, err
	}
	run := func(ctx context.Context, e *executor, w int) (*Result, error) {
		res, err := e.harnesses[w].RunLatency(ctx, spec)
		if err != nil {
			return nil, err
		}
		out := &Result{
			Engine:   Emulation,
			Seed:     spec.Seed,
			Replicas: 1,
			digest:   &res.Digest,
			Latency:  summarize(&res.Digest),
			Aborted:  res.Aborted,
			Texp:     res.Texp,
			Events:   res.Events,
			raw:      res,
		}
		if p.TimeoutT > 0 {
			out.TMR, out.TM = res.QoS.TMR, res.QoS.TM
		}
		return out, nil
	}
	return p, prepared{run: run, chain: chainCost(shape, plan)}, nil
}

// spec is the latency campaign the point describes, for the Emulation
// engine to default and check.
func (p LatencyPoint) spec() experiment.LatencySpec {
	spec := experiment.LatencySpec{
		N:          p.N,
		Executions: p.Executions,
		Gap:        p.Gap,
		Warmup:     p.Warmup,
		MaxRounds:  p.MaxRounds,
		Deadline:   p.Deadline,
		Seed:       p.Seed,
	}
	if p.TimeoutT != 0 {
		spec.FDMode = experiment.FDHeartbeat
		spec.TimeoutT = p.TimeoutT
		spec.PeriodTh = p.PeriodTh
	}
	for _, id := range p.Crashed {
		spec.Crashed = append(spec.Crashed, neko.ProcessID(id))
	}
	return spec
}

// SANPoint is a SAN-engine point: a replicated transient study of the
// paper's stochastic activity network model (§3), each replica one
// consensus until the first decision.
type SANPoint struct {
	// Name labels the point in results (default "san[index]").
	Name string
	// N is the number of processes (≥ 2).
	N int
	// Replicas is the number of transient-simulation replicas; 0 takes
	// the study default (WithReplicas, else 1000).
	Replicas int
	// TSend overrides t_send = t_receive in ms (0 keeps the model default
	// 0.025, the value the paper settles on in §5.2).
	TSend float64
	// Net, when set, is the measured network (§5.1): the model's unicast
	// and broadcast network activities take its end-to-end delay fits
	// shifted by −2·t_send (floored at 0.001 ms) instead of the model's
	// default delays. Nil keeps the defaults.
	Net *NetFit `json:",omitempty"`
	// Crashed lists initially crashed processes (class-2 runs).
	Crashed []int
	// TMR > 0 enables the abstract failure-detector submodels of §3.4
	// with mistake recurrence time TMR and mistake duration TM (class-3
	// runs); FDExponential selects exponential instead of deterministic
	// sojourns.
	TMR, TM       float64
	FDExponential bool
	// Tmax is the simulation horizon in ms (0 = 1e7); replicas that reach
	// it undecided count as Aborted, and so do replicas the model's rounds
	// guard ends without a decision.
	Tmax float64
	// Seed pins this point's campaign seed; 0 derives one from the study
	// seed and the point index.
	Seed uint64
}

// Engine implements Point.
func (p SANPoint) Engine() Engine { return SAN }

// Label implements Point.
func (p SANPoint) Label() string { return p.Name }

func (p SANPoint) freeze(o *options, index int) (Point, prepared, error) {
	p.Name = label(p, index)
	p.Seed = o.pointSeed(index, p.Seed)
	p.Replicas = o.pointReplicas(p.Replicas, 1000)
	params, err := p.params()
	if err != nil {
		return nil, prepared{}, err
	}
	tmax := p.horizon()
	if err := sanmodel.Check(params, p.Replicas, tmax); err != nil {
		return nil, prepared{}, err
	}
	run := func(ctx context.Context, e *executor, w int) (*Result, error) {
		res, err := e.models[w].Simulate(ctx, e.pool, w, params, p.Replicas, tmax, p.Seed)
		if err != nil {
			return nil, err
		}
		return &Result{
			Engine:   SAN,
			Seed:     p.Seed,
			Replicas: p.Replicas,
			digest:   &res.Digest,
			Latency:  summarize(&res.Digest),
			Aborted:  res.Truncated + res.Discarded,
			raw:      res,
		}, nil
	}
	return p, prepared{run: run}, nil
}

// params is the model the point describes, for sanmodel to check; only
// the measured fits are checked here, before they become distributions.
func (p SANPoint) params() (sanmodel.Params, error) {
	params := sanmodel.DefaultParams(p.N)
	if p.TSend != 0 {
		params.TSend = p.TSend
		params.TReceive = p.TSend
	}
	if p.Net != nil { // the fits are end to end: sending and receiving take 2·t_send of them
		if err := errors.Join(checkFit("unicast", p.Net.Unicast), checkFit("broadcast", p.Net.Broadcast)); err != nil {
			return sanmodel.Params{}, err
		}
		params.NetUnicast = p.Net.Unicast.Shift(2*params.TSend, 0.001).Dist()
		params.NetBroadcast = p.Net.Broadcast.Shift(2*params.TSend, 0.001).Dist()
	}
	params.Crashed = append(params.Crashed, p.Crashed...)
	kind := sanmodel.FDDeterministic
	if p.FDExponential {
		kind = sanmodel.FDExponential
	}
	params.FD = sanmodel.FDModel{TMR: p.TMR, TM: p.TM, Kind: kind}
	return params, nil
}

// horizon is the point's simulation horizon in ms.
func (p SANPoint) horizon() float64 {
	if p.Tmax == 0 {
		return 1e7
	}
	return p.Tmax
}

// NetFit is a measured network: the bi-modal uniform fits of unicast and
// broadcast end-to-end delays (§5.1) a SANPoint's network activities
// take instead of the model's defaults.
type NetFit struct {
	Unicast   fit.Bimodal
	Broadcast fit.Bimodal
}

// checkFit rejects a fit the distribution constructors would panic on:
// a non-finite value (every comparison is false on NaN), a probability
// outside [0, 1], a negative bound, or a mode with Lo > Hi.
func checkFit(name string, b fit.Bimodal) error {
	if 0 <= b.P1 && b.P1 <= 1 && 0 <= b.Lo1 && b.Lo1 <= b.Hi1 && 0 <= b.Lo2 && b.Lo2 <= b.Hi2 &&
		!math.IsInf(b.Hi1, 1) && !math.IsInf(b.Hi2, 1) {
		return nil
	}
	return fmt.Errorf("%s delay fit P1=%g U[%g,%g] U[%g,%g]: want finite values, 0 <= P1 <= 1 and 0 <= Lo <= Hi in both modes",
		name, b.P1, b.Lo1, b.Hi1, b.Lo2, b.Hi2)
}

// ScenarioPoint is a Scenario-engine point: a named registry scenario —
// or an inline declarative JSON timeline — run as a replica campaign on
// the emulated cluster, reporting ground-truthed wrong suspicions along
// with latency.
type ScenarioPoint struct {
	// Name is the registry scenario to run (see `ctsan scenario list`),
	// and the point label. With SpecJSON set, Name only labels the point.
	Name string
	// SpecJSON, when non-nil, is a declarative JSON scenario definition
	// (the `ctsan scenario run -spec` format) used instead of the registry.
	SpecJSON []byte
	// Replicas is the number of independent replicas; 0 takes the study
	// default (WithReplicas, else 1).
	Replicas int
	// Executions overrides the scenario's per-replica execution count
	// (0 keeps the scenario's own default).
	Executions int
	// MaxRounds (0 = 256) and Deadline ms (0 = scenario default) guard
	// each execution.
	MaxRounds int
	Deadline  float64
	// Seed pins this point's campaign seed; 0 derives one from the study
	// seed and the point index.
	Seed uint64
}

// Engine implements Point.
func (p ScenarioPoint) Engine() Engine { return Scenario }

// Label implements Point.
func (p ScenarioPoint) Label() string { return p.Name }

// scenario resolves the timeline the point runs: the inline definition
// when there is one, the registry entry otherwise.
func (p ScenarioPoint) scenario() (*scenario.Scenario, error) {
	switch {
	case p.SpecJSON != nil:
		return scenario.LoadJSON(p.SpecJSON)
	case p.Name != "":
		return scenario.Get(p.Name)
	}
	return nil, errors.New("need a registry scenario name or an inline SpecJSON")
}

// grid is the campaign the point describes over its resolved timeline s,
// for the scenario engine to default and check.
func (p ScenarioPoint) grid(s *scenario.Scenario) scenario.CampaignSpec {
	return scenario.CampaignSpec{
		Scenarios:  []*scenario.Scenario{s},
		Replicas:   p.Replicas,
		Executions: p.Executions,
		Seed:       p.Seed,
		MaxRounds:  p.MaxRounds,
		Deadline:   p.Deadline,
	}
}

func (p ScenarioPoint) freeze(o *options, index int) (Point, prepared, error) {
	s, err := p.scenario()
	if err != nil {
		return nil, prepared{}, err
	}
	p.Name = label(p, index)
	p.Seed = o.pointSeed(index, p.Seed)
	p.Replicas = o.pointReplicas(p.Replicas, 1)
	spec := p.grid(s)
	shapes, plans, err := spec.Check()
	if err != nil {
		return nil, prepared{}, err
	}
	run := func(ctx context.Context, e *executor, w int) (*Result, error) {
		reports, err := scenario.RunCampaignOn(ctx, e.pool, w, e.harnesses, spec)
		if err != nil {
			return nil, err
		}
		rep := reports[0]
		return &Result{
			Engine:          Scenario,
			Seed:            spec.Seed,
			Replicas:        p.Replicas,
			digest:          &rep.Digest,
			Latency:         summarize(&rep.Digest),
			Aborted:         rep.Aborted,
			Texp:            rep.Texp,
			Events:          rep.DESEvents,
			Suspicions:      rep.Suspicions,
			WrongSuspicions: rep.WrongSuspicions,
			TMR:             rep.TMR,
			TM:              rep.TM,
			raw:             rep,
		}, nil
	}
	chain := 0.0
	if spec.Replicas == 1 {
		chain = chainCost(shapes[0], plans[0])
	}
	return p, prepared{run: run, chain: chain}, nil
}

// chainCost estimates what a chain — a point no second worker can join: a
// LatencyPoint, or a ScenarioPoint of one replica — costs its one worker,
// as the messages it sends over the harness configuration it resolves
// to: executions × (3(n−1) + n(n−1)·gap/Th), the heartbeat term only when
// the detector runs. 3(n−1) is what a first-round decision exchanges with
// each participant in internal/consensus — proposal, ack, decision;
// counting the phase-1 estimates too, 4(n−1), rates heartbeat points
// lighter than their measured times, as every heartbeat also re-arms a
// suspicion timer in internal/fd. Only the ranking matters (startOrder),
// never the value.
func chainCost(shape experiment.Shape, plan experiment.Plan) float64 {
	n := shape.Params.N
	perExec := float64(3 * float64(n-1))
	if shape.TimeoutT > 0 {
		perExec += float64(n*(n-1)) * plan.Gap / shape.PeriodTh
	}
	return float64(plan.Executions) * perExec
}

// label resolves a point's display name, falling back to "engine[index]".
func label(p Point, index int) string {
	if l := p.Label(); l != "" {
		return l
	}
	return fmt.Sprintf("%s[%d]", p.Engine(), index)
}
