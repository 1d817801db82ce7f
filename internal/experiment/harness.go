package experiment

import (
	"context"
	"fmt"
	"math"

	"ctsan/internal/consensus"
	"ctsan/internal/fd"
	"ctsan/internal/keyed"
	"ctsan/internal/neko"
	"ctsan/internal/netsim"
	"ctsan/internal/obs"
	"ctsan/internal/rng"
	"ctsan/internal/trace"
)

// Shape is everything baked into a Harness at assembly time. Runs that
// agree on it share one assembly and differ freely in their Plan.
type Shape struct {
	// Params configures the cluster; its N and Crashed fields are the
	// process count and the initially crashed set.
	Params netsim.Params
	// TimeoutT > 0 runs the push heartbeat detector of §2.2 with timeout T
	// and period PeriodTh (0 = 0.7·T, §5.4); TimeoutT == 0 runs a perfect
	// oracle that suspects exactly Params.Crashed.
	TimeoutT, PeriodTh float64
	// MaxRounds is the per-execution abort threshold (0 = 256).
	MaxRounds int
}

// Check resolves shape and plan in place, each zero field taking the
// harness default (MaxRounds 256, PeriodTh 0.7·T §5.4, Gap 10 ms §4,
// Warmup 20 ms, Deadline 500 ms), and reports the first rule they break,
// prefixed with the plan's Label: the one statement of what a harness runs.
func Check(shape *Shape, plan *Plan) error {
	err := shape.resolve()
	if err == nil {
		err = plan.resolve()
	}
	if err != nil {
		return fmt.Errorf("%s: %w", plan.Label, err)
	}
	return nil
}

// resolve checks the shape — at least two processes, initially crashed
// ids in 1..n leaving a correct majority (◇S consensus needs one to
// terminate), a heartbeat configuration the detector accepts, a
// non-negative round guard — and applies its defaults.
func (s *Shape) resolve() error {
	n := s.Params.N
	switch {
	case n < 2:
		return fmt.Errorf("need n >= 2, got %d", n)
	case s.TimeoutT < 0:
		return fmt.Errorf("negative heartbeat timeout %g (0 selects the oracle FD)", s.TimeoutT)
	case s.PeriodTh < 0:
		return fmt.Errorf("negative heartbeat period %g (0 selects 0.7·T)", s.PeriodTh)
	case s.PeriodTh > 0 && s.TimeoutT == 0:
		return fmt.Errorf("heartbeat period %g without a timeout", s.PeriodTh)
	case s.MaxRounds < 0:
		return fmt.Errorf("negative round guard MaxRounds %d (0 selects 256)", s.MaxRounds)
	}
	for _, id := range s.Params.Crashed {
		if id < 1 || int(id) > n {
			return fmt.Errorf("crashed process %d out of range 1..%d", id, n)
		}
	}
	if len(s.Params.Crashed) >= (n+1)/2 {
		return fmt.Errorf("%d crashes violate the majority-correct requirement for n=%d", len(s.Params.Crashed), n)
	}
	if s.MaxRounds == 0 {
		s.MaxRounds = 256
	}
	if s.TimeoutT > 0 && s.PeriodTh == 0 {
		s.PeriodTh = 0.7 * s.TimeoutT
	}
	return nil
}

// Plan configures one run of a Harness: the paper's measurement loop —
// sequential consensus executions started "at the same time t_0" on every
// up process, separated by Gap, closed at the last decision or by a
// watchdog (§4). A latency experiment is a Plan with a fixed gap and the
// static up-set; a scenario adds a Prepare step that compiles its
// timeline onto the cluster and an Up predicate that follows it.
type Plan struct {
	// Label prefixes invariant-violation errors ("experiment", "scenario x").
	Label string
	// Seed is the root seed, already salted by the caller; the cluster
	// draws from child 1 of the root stream, Prepare may derive further
	// children from Harness.Root.
	Seed       uint64
	Executions int
	// Warmup is the local time of the first execution; Gap separates
	// execution starts (SetGap changes it mid-run); Deadline force-closes
	// an execution that many ms after its start. All in ms.
	Warmup, Gap, Deadline float64
	// History receives the heartbeat detectors' transitions and folds the
	// QoS estimate from them; it keeps the transitions themselves only if
	// the caller reads them (fd.History.Keep).
	History *fd.History
	// Up reports whether process id takes part in an execution starting at
	// t0; nil selects the static set of processes not in Shape.Params.Crashed.
	Up func(id neko.ProcessID, t0 float64) bool
	// Prepare, when set, runs after the rewind and before the cluster
	// starts: fault injection, tracer attachment, phase hooks.
	Prepare func() error
	// Trace, when set, observes (execution index, latency) of every decided
	// execution as it closes.
	Trace func(k int, lat float64)
}

// resolve checks the plan — at least one execution, no negative time —
// and applies its defaults. A negative deadline would force-close every
// execution before it starts.
func (p *Plan) resolve() error {
	switch {
	case p.Executions < 1:
		return fmt.Errorf("need at least 1 execution, got %d", p.Executions)
	case p.Gap < 0 || p.Warmup < 0:
		return fmt.Errorf("negative gap %g or warmup %g ms (0 selects the default)", p.Gap, p.Warmup)
	case p.Deadline < 0:
		return fmt.Errorf("negative execution deadline %g ms (0 selects the default)", p.Deadline)
	}
	if p.Gap == 0 {
		p.Gap = 10
	}
	if p.Warmup == 0 {
		p.Warmup = 20
	}
	if p.Deadline == 0 {
		p.Deadline = 500
	}
	return nil
}

// Harness is the one reusable replica executor: a cluster, one protocol
// stack, consensus engine and failure detector per process, assembled
// once (NewHarness) and rewound per run (Run). Campaign workers keep a
// keyed set of them (Harnesses), so a study assembles each shape once per
// worker and constructs nothing per replica or per point; a reused
// harness is bit-identical to a fresh one (TestLatencyReuseMatchesFresh,
// scenario.TestRunReuseMatchesFresh).
type Harness struct {
	shape      Shape
	cluster    *netsim.Cluster
	engines    []*consensus.Engine // index 1..N
	heartbeats []*fd.Heartbeat
	crashed    []bool // index 1..N: in Shape.Params.Crashed
	// Per-process Propose decision/abort hooks, allocated once. They read
	// the current execution index at fire time, which is safe: engine
	// callbacks only fire while their instance is active, and instances
	// are forgotten when their execution closes.
	decideFns []func(consensus.Decision)
	doneFns   []func()
	stopFn    func() bool
	// callFree recycles the per-arm StartAt and per-execution watchdog
	// records (see execCall); callAll retains every record ever created so
	// Run can reclaim the ones stranded in the wiped event queue.
	callFree []*execCall
	callAll  []*execCall
	// root and clusterRand are retained randomness streams, reseeded in
	// place per run so rewinding constructs nothing.
	root        rng.Stream
	clusterRand rng.Stream

	// Per-run state.
	ctx  context.Context
	plan Plan
	out  LatencyResult
	err  error
	// Current execution state.
	running  bool
	execIdx  int
	execT0   float64
	closed   bool
	started  []bool // index 1..N: proposes in the current execution
	upCount  int
	finished int // processes that decided or aborted in the current execution
	decided  bool
	firstAt  float64
	round    int
	val      int64
}

// NewHarness assembles a harness for shape, resolved and checked as
// Check does. No randomness is drawn here (netsim.NewIdle): Run rewinds
// the cluster from the plan's seed before executing, so fresh and reused
// harnesses take the same path.
func NewHarness(shape Shape) (*Harness, error) {
	if err := shape.resolve(); err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	cluster, err := netsim.NewIdle(shape.Params)
	if err != nil {
		return nil, err
	}
	n := shape.Params.N
	h := &Harness{
		shape:     shape,
		cluster:   cluster,
		engines:   make([]*consensus.Engine, n+1),
		crashed:   make([]bool, n+1),
		started:   make([]bool, n+1),
		decideFns: make([]func(consensus.Decision), n+1),
		doneFns:   make([]func(), n+1),
	}
	h.stopFn = func() bool { return !h.running || h.err != nil }
	for _, id := range shape.Params.Crashed {
		h.crashed[id] = true
	}
	for i := 1; i <= n; i++ {
		id := neko.ProcessID(i)
		stack := neko.NewStack(cluster.Context(id))
		var det neko.FailureDetector
		if shape.TimeoutT > 0 {
			hb := fd.NewHeartbeat(stack, shape.TimeoutT, shape.PeriodTh, nil)
			h.heartbeats = append(h.heartbeats, hb)
			det = hb
		} else {
			det = fd.NewOracle(shape.Params.Crashed...)
		}
		h.engines[i] = consensus.NewEngine(stack, det, consensus.Options{MaxRounds: shape.MaxRounds})
		cluster.Attach(id, stack)
		h.decideFns[i] = func(d consensus.Decision) { h.onDecision(h.execIdx, d) }
		h.doneFns[i] = func() { h.onProcessDone(h.execIdx) }
	}
	return h, nil
}

// Harnesses is a worker's bounded set of assembled harnesses keyed by
// Shape — the reuse rule of every campaign on the emulated cluster: a
// harness is assembled when the worker first sees its shape, rewound
// (Run) for every later run of that shape, and dropped at capacity or
// with the set. Latency points and scenario replicas of equal shape share
// one harness; sweeps of Monte-Carlo repetitions reuse one assembly end
// to end, heterogeneous grids keep one per shape. The zero value is an
// empty set; a set belongs to one worker and is not safe for concurrent
// use.
type Harnesses struct {
	set keyed.Set[Shape, *Harness]
}

// For returns the harness assembled for shape, as Check resolved it,
// assembling it first when the set holds none.
func (hs *Harnesses) For(shape Shape) (*Harness, error) {
	return hs.set.Get(shape, NewHarness)
}

// Len reports how many harnesses the set retains.
func (hs *Harnesses) Len() int { return hs.set.Len() }

// Cluster exposes the emulated cluster to Plan.Prepare steps.
func (h *Harness) Cluster() *netsim.Cluster { return h.cluster }

// Root is the run's root random stream (seeded from Plan.Seed); child 1
// belongs to the cluster.
func (h *Harness) Root() *rng.Stream { return &h.root }

// SetGap changes the separation between execution starts from the next
// execution on (workload phases).
func (h *Harness) SetGap(gap float64) { h.plan.Gap = gap }

// SetTracer attaches a structured execution tracer to every layer of the
// assembly. The rewind detaches it, so traced runs re-attach in Prepare.
func (h *Harness) SetTracer(tr *trace.Tracer) {
	h.cluster.SetTracer(tr)
	for _, e := range h.engines[1:] {
		e.SetTracer(tr)
	}
	for _, hb := range h.heartbeats {
		hb.SetTracer(tr)
	}
}

// execCall is a pooled callback a run hands to the event queue, carrying
// the execution index it was armed for. As a start record (i > 0) it
// proposes on process i — unless stale, which a sub-clock-skew Deadline
// makes possible: the watchdog then closes execution k before its
// StartAts fire, and the late call must not propose into the successor.
// As a watchdog record (i == 0) it closes execution k; the deadline event
// of an execution that closed normally fires late as a stale no-op
// (closeExec's guard) and only returns the record. The pool stabilizes at
// roughly Deadline/Gap in-flight records, after which arming allocates
// nothing.
type execCall struct {
	h     *Harness
	i, k  int
	runFn func()
}

func (h *Harness) arm(i, k int) func() {
	var c *execCall
	if n := len(h.callFree); n > 0 {
		c = h.callFree[n-1]
		h.callFree[n-1] = nil
		h.callFree = h.callFree[:n-1]
	} else {
		c = &execCall{h: h}
		c.runFn = c.run
		h.callAll = append(h.callAll, c)
	}
	c.i, c.k = i, k
	return c.runFn
}

func (c *execCall) run() {
	h, i, k := c.h, c.i, c.k
	h.callFree = append(h.callFree, c)
	if i == 0 {
		h.closeExec(k)
		return
	}
	if h.closed || k != h.execIdx {
		return
	}
	h.engines[i].Propose(uint64(k), int64(i), h.decideFns[i], h.doneFns[i])
}

// Run rewinds the whole assembly to the plan's seed — cluster randomness,
// protocol state, pooled records — and executes the plan, which Check has
// resolved. The rewind reproduces construction exactly. ctx is checked
// between executions: a canceled run stops at the next execution boundary
// and returns ctx.Err().
func (h *Harness) Run(ctx context.Context, plan Plan) (LatencyResult, error) {
	h.root.Reseed(plan.Seed)
	h.root.ChildInto(&h.clusterRand, 1)
	h.cluster.Reset(&h.clusterRand)
	h.callFree = append(h.callFree[:0], h.callAll...)
	for _, e := range h.engines[1:] {
		e.Reset()
	}
	for _, hb := range h.heartbeats {
		hb.Reset(plan.History)
	}
	h.ctx = ctx
	h.plan = plan
	h.out = LatencyResult{}
	h.running = false
	h.closed = false
	h.err = nil

	if plan.Prepare != nil {
		if err := plan.Prepare(); err != nil {
			return LatencyResult{}, err
		}
	}
	h.cluster.Start()
	h.startExec(0, plan.Warmup)
	h.cluster.Run(h.stopFn)
	if h.err != nil {
		return LatencyResult{}, h.err
	}
	h.out.Texp = h.cluster.Now()
	h.out.Events = h.cluster.Steps()
	for _, hb := range h.heartbeats {
		hb.Stop()
	}
	if h.shape.TimeoutT > 0 {
		h.out.QoS = fd.EstimateQoS(plan.History, h.out.Texp, h.shape.Params.N)
	}
	return h.out, nil
}

// startExec launches execution k at local time t0 on every process that
// is up (crashed processes never start; the cluster additionally guards
// against races at the boundary).
func (h *Harness) startExec(k int, t0 float64) {
	h.running = true
	h.execIdx = k
	h.execT0 = t0
	h.closed = false
	h.finished = 0
	h.decided = false
	h.firstAt = math.Inf(1)
	h.round = 0
	h.val = 0
	h.upCount = 0
	for i := 1; i < len(h.engines); i++ {
		id := neko.ProcessID(i)
		up := !h.crashed[i]
		if h.plan.Up != nil {
			up = h.plan.Up(id, t0)
		}
		h.started[i] = up
		if !up {
			continue
		}
		h.upCount++
		h.cluster.StartAt(id, t0, h.arm(i, k))
	}
	// Watchdog: catastrophic failure detection, mid-run crashes and
	// partitions must not hang the run (cf. the paper's footnote 2 on
	// increasing the separation when latencies exceeded the 10 ms gap).
	// Scheduled globally so that no host state can silence it.
	h.cluster.AtGlobal(t0+h.plan.Deadline, h.arm(0, k))
	if h.upCount == 0 {
		// Nobody can propose; close via the watchdog path immediately.
		h.cluster.AtGlobal(t0, h.arm(0, k))
	}
}

// onDecision records a decision event of execution k. Decisions of an
// execution already force-closed by the watchdog are ignored.
func (h *Harness) onDecision(k int, d consensus.Decision) {
	if h.closed || k != h.execIdx {
		return
	}
	if !h.decided {
		h.decided = true
		h.firstAt = d.At
		h.round = d.Round
		h.val = d.Val
	} else {
		if d.Val != h.val {
			h.err = fmt.Errorf("%s: agreement violated in execution %d: decisions %d and %d", h.plan.Label, k, h.val, d.Val)
			return
		}
		if d.At < h.firstAt {
			h.firstAt = d.At
			h.round = d.Round
		}
	}
	// Validity: process i proposes the value i, so a decided value must
	// name a process that proposed in this execution.
	if v := d.Val; v < 1 || int(v) >= len(h.started) || !h.started[v] {
		h.err = fmt.Errorf("%s: validity violated in execution %d: decided %d", h.plan.Label, k, d.Val)
		return
	}
	h.onProcessDone(k)
}

// onProcessDone counts a process having finished (decided or aborted) the
// execution; when every started process is done, the execution closes.
func (h *Harness) onProcessDone(k int) {
	if h.closed || k != h.execIdx {
		return
	}
	h.finished++
	if h.finished >= h.upCount {
		h.closeExec(k)
	}
}

// closeExec finalizes execution k (normally or via watchdog) and schedules
// the next one a gap later. Stale calls (watchdogs of already-closed
// executions) are ignored.
func (h *Harness) closeExec(k int) {
	if h.closed || k != h.execIdx {
		return
	}
	h.closed = true
	obs.Executions.Add(1)
	if h.decided {
		lat := h.firstAt - h.execT0
		h.out.Digest.Add(lat)
		h.out.Rounds.Add(float64(h.round))
		if h.plan.Trace != nil {
			h.plan.Trace(k, lat)
		}
	} else {
		h.out.Aborted++
	}
	for _, e := range h.engines[1:] {
		e.Forget(uint64(k))
	}
	if k+1 >= h.plan.Executions {
		h.running = false
		return
	}
	if err := h.ctx.Err(); err != nil {
		// Cancellation lands at execution boundaries: the run stops
		// scheduling and surfaces the clean context error.
		h.err = err
		h.running = false
		return
	}
	next := h.execT0 + h.plan.Gap
	if now := h.cluster.Now(); now+2 > next {
		next = now + 2
	}
	h.startExec(k+1, next)
}
