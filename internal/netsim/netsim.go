// Package netsim emulates the paper's measurement environment (§2.5): a
// cluster of PCs connected by a simplex 100 Base-TX Ethernet hub, running
// Linux 2.2 and a JVM. It is a discrete-event model executing real protocol
// code (internal/neko stacks) in virtual time.
//
// The emulator reproduces, at the mechanism level, the phenomena the paper
// measures:
//
//   - per-host CPU cost for sending and receiving each message, and a
//     shared serial transmission medium (the hub) — the two contention
//     points of the paper's network model (§3.3). A frame holds the hub
//     for one draw of the §5.1 t_net fit, whose two modes are Fig. 6's
//     bi-modal end-to-end delay;
//   - OS timer coarseness: Linux 2.2 has a 10 ms jiffy; sleeps overshoot
//     by U[0, granularity) and are sometimes deferred to the next absolute
//     scheduler tick. This drives the failure-detector QoS curves (Fig. 8)
//     and the latency peak near T = 10 ms (Fig. 9a, §5.4);
//   - host execution pauses (JVM garbage collection, cron, IRQ storms)
//     that freeze a host entirely, producing correlated wrong suspicions —
//     the effect the paper's independent-FD SAN model cannot capture
//     (§5.4);
//   - per-host clock offsets within the ±50 µs NTP synchronization bound
//     (§4), applied to the common start instant t_0;
//   - process crashes: messages to a crashed process still consume sender
//     CPU and hub time (the cause of the n = 3 anomaly in Table 1).
//
// All times are float64 milliseconds.
package netsim

import (
	"fmt"
	"math"

	"ctsan/internal/des"
	"ctsan/internal/dist"
	"ctsan/internal/neko"
	"ctsan/internal/rng"
	"ctsan/internal/trace"
)

// Params configures the emulated cluster. Zero-value fields take the
// calibrated defaults of DefaultParams, which reproduce the paper's
// measured end-to-end delay distribution (§5.1).
type Params struct {
	// N is the number of processes (one per host). The paper uses odd
	// 3..11 on a 12-PC cluster.
	N int

	// TSend is the CPU cost of pushing one message through the sending
	// host's protocol stack; TReceive likewise on the receiving host.
	TSend, TReceive dist.Dist
	// TWire is the hub occupancy per frame: the paper's §5.1 t_net, the
	// measured end-to-end delay minus 2·t_send. It is the whole network
	// path, not the time to serialize a frame at 100 Mbit/s.
	TWire dist.Dist

	// SleepGranularity is the OS timer coarseness: a timer armed for d ms
	// fires after d + U[0, SleepGranularity) + kernel latency. Linux 2.2
	// jiffy = 10 ms.
	SleepGranularity float64
	// GridProb is the probability that a timer wake-up is additionally
	// deferred to the host's next absolute scheduler tick (10 ms grid),
	// which produces resonance effects when timeout values are close to
	// the quantum (the Fig. 9a peak at T = 10 ms).
	GridProb float64
	// ThreadJitter is thread-scheduling noise added to every wake-up.
	ThreadJitter dist.Dist
	// KernelLate is small always-present wake-up latency.
	KernelLate dist.Dist
	// WakeTailProb/WakeTail model occasional long delays of sleeping
	// threads (priority decay under load, JVM safepoints): with this
	// probability a timer wake-up is additionally delayed by a WakeTail
	// sample. Message processing is unaffected — the I/O path keeps its
	// dynamic priority — so these delays starve the heartbeat sender
	// thread and produce the correlated wrong suspicions of §5.4 without
	// disturbing class-1 latency. ThreadJitter, KernelLate and WakeTail
	// must not draw negative values: a timer's ideal instant is the
	// lower bound its wake-up waits at until the lateness is drawn.
	WakeTailProb float64
	WakeTail     dist.Dist

	// PauseEvery is the inter-arrival distribution of whole-host execution
	// pauses (GC-like); PauseDur their duration. Pauses freeze timers,
	// sends and receive processing, producing correlated FD mistakes.
	PauseEvery dist.Dist
	PauseDur   dist.Dist

	// ClockSkew is the distribution of per-host clock offsets relative to
	// global simulated time (may be negative). Paper: NTP within ±50 µs.
	ClockSkew dist.Dist

	// Crashed lists processes that are crashed from the very beginning
	// (class-2 runs, §2.4). A crashed process never starts and never
	// processes messages.
	Crashed []neko.ProcessID

	// CrashedConsumeWire controls the cost of sending to a crashed
	// process. The default (false) models TCP to a dead peer: the send
	// costs the sender's CPU (FailedSend — §5.3 explains the n = 3 anomaly
	// by exactly this sender-side delay: "the message m sent to p delays
	// the sending of m to q") but the frame never occupies the shared
	// medium, as the connection fails fast. Set true to charge the full
	// path (what the paper's SAN model implicitly does, since it has no
	// notion of connection state).
	CrashedConsumeWire bool
	// FailedSend is the sender CPU cost of a send that fails fast (TCP
	// reset + JVM exception path); used when CrashedConsumeWire is false.
	FailedSend dist.Dist
}

// DefaultParams returns the calibrated emulator configuration for n
// processes. The network decomposition follows the paper's own (§5.1):
// t_send = t_receive = 0.025 ms of host CPU per message, and a medium
// occupancy equal to the measured end-to-end delay minus 2·t_send, so that
// the uncontended unicast end-to-end delay reproduces the paper's bi-modal
// fit exactly: U[0.1, 0.13] w.p. 0.8 and U[0.145, 0.35] w.p. 0.2.
//
// Host pauses (GC-like freezes) are disabled by default: the paper's
// class-1 runs show tight confidence intervals (±0.02 ms over 5000
// executions, §5.2) incompatible with frequent long pauses. Enable them
// via PauseEvery for failure-injection studies.
func DefaultParams(n int) Params {
	p := defaultParams
	p.N = n
	return p
}

// defaultParams is DefaultParams without N. Distributions are immutable
// values, so every Params shares these and DefaultParams allocates nothing.
var defaultParams = Params{
	TSend:    dist.U(0.020, 0.030),
	TReceive: dist.U(0.020, 0.030),
	TWire: dist.MustMixture(
		dist.Component{P: 0.80, D: dist.U(0.050, 0.080)},
		dist.Component{P: 0.20, D: dist.U(0.095, 0.300)},
	),
	SleepGranularity: 10.0,
	GridProb:         0.35,
	ThreadJitter:     dist.Exp(0.3),
	KernelLate:       dist.Exp(0.05),
	WakeTailProb:     0.08,
	WakeTail:         dist.U(2, 15),
	PauseEvery:       dist.Det(0), // disabled
	PauseDur: dist.MustMixture(
		dist.Component{P: 0.80, D: dist.U(0.5, 6)},
		dist.Component{P: 0.17, D: dist.U(6, 18)},
		dist.Component{P: 0.03, D: dist.U(18, 34)},
	),
	ClockSkew:  dist.U(-0.05, 0.05),
	FailedSend: dist.U(0.12, 0.18),
}

// Cluster is an emulated cluster executing one neko.Stack per process in
// virtual time. Construct with New, attach stacks with Attach, then drive
// the simulation with Start/Run/RunUntil. A finished cluster can be
// rewound with Reset and reused for the next replica without
// reallocating any of its state (see Reset for the contract).
type Cluster struct {
	params Params
	sim    des.Sim
	rand   *rng.Stream
	hosts  []*host // index 0..n-1 for processes 1..n
	// delivered counts messages handed to protocol stacks.
	delivered uint64
	// hubFree is when the shared medium next becomes idle.
	hubFree float64
	// tracer, if set, records structured execution events (message
	// send/deliver/drop, timer arm/stop/fire, fault injections) into the
	// replica's trace ring. Nil costs one branch per site.
	tracer *trace.Tracer
	// group[i] is process i's partition group; nil when unpartitioned.
	// Frames between different groups are dropped at the hub boundary.
	group []int
	// links holds per-directed-link degradation rules (see SetLinkAt);
	// nil until the first rule is installed.
	links map[linkKey]linkRule
	// linkRand draws loss and added-latency samples for link rules. It is
	// a dedicated child stream, consumed only when a rule exists, so runs
	// without link injections are bit-identical to pre-injection builds.
	linkRand *rng.Stream
	// phaseFns observe PhaseAt transitions (scenario workload hooks).
	phaseFns []func(name string, at float64)
	// dmsg is the message being dispatched to a stack. recv copies the
	// transit's message here after releasing the record (handler sends
	// reuse it), and hands the stack a pointer into this scratch slot
	// rather than a stack local — a local's address would escape into the
	// handler chain and put one allocation back on every delivery. recv
	// only runs from DES steps, which never nest, so one slot suffices.
	// A message is pointer-free, so the slot is never cleared.
	dmsg neko.Message

	// Record pools for the hot delivery and timer paths. Each record
	// carries its stage closures, allocated once at record construction,
	// so steady-state message delivery and timer arm/stop/fire cycles
	// perform no heap allocation (see PERFORMANCE.md).
	transits pool[transit]
	timers   pool[simTimer]
	fires    pool[fireCall]
	calls    pool[guardedCall]
	pauses   pool[pauseCall]
	injects  pool[injectCall]

	// timerCounts tallies the timer path since the last Reset.
	timerCounts TimerCounts
}

// TimerCounts is what a cluster's timers cost it over one run: the cost
// table (testdata/costs.golden) holds them exact per workload.
type TimerCounts struct {
	Arms     uint64 // SetTimer and Reset calls
	Draws    uint64 // scheduler latenesses computed
	Wakeups  uint64 // timer wake-up events executed
	QueueOps uint64 // event-queue inserts plus removes made for timers
}

// Add adds o to c.
func (c *TimerCounts) Add(o TimerCounts) {
	c.Arms += o.Arms
	c.Draws += o.Draws
	c.Wakeups += o.Wakeups
	c.QueueOps += o.QueueOps
}

// TimerCounts returns the timer tallies since the last Reset.
func (c *Cluster) TimerCounts() TimerCounts { return c.timerCounts }

// pool is a LIFO free list over every record ever created for one
// cluster. all retains them so Reset can reclaim in-flight records after
// the event queue that referenced them has been wiped.
type pool[T any] struct {
	new  func() *T
	free []*T
	all  []*T
}

func (p *pool[T]) get() *T {
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return r
	}
	r := p.new()
	p.all = append(p.all, r)
	return r
}

func (p *pool[T]) put(r *T) { p.free = append(p.free, r) }

// reclaimAll returns every record to the free list, in-flight or not.
func (p *pool[T]) reclaimAll() {
	p.free = p.free[:0]
	p.free = append(p.free, p.all...)
}

// host models one PC: a CPU with FIFO queueing, a scheduler with coarse
// timers, pauses, a skewed clock, and the process running on it.
type host struct {
	c         *Cluster
	id        neko.ProcessID
	cpuFree   float64
	clockOff  float64
	gridPhase float64
	// down is the crash state, flipped by CrashAt/RecoverAt events at
	// their scheduled instants. epoch counts crashes: timers armed before
	// a crash carry the old epoch and never fire after it.
	down      bool
	epoch     uint64
	stack     *neko.Stack
	netRand   *rng.Stream
	schedRand *rng.Stream
	pauseRand *rng.Stream
	// startStackFn/pauseBodyFn are the host's recurring event callbacks,
	// allocated once here instead of per scheduling.
	startStackFn func()
	pauseBodyFn  func()
}

// New creates a cluster from params, drawing all randomness from child
// streams of r. Attach a stack to every process before calling Start.
func New(params Params, r *rng.Stream) (*Cluster, error) {
	c, err := build(params)
	if err != nil {
		return nil, err
	}
	c.seed(r)
	return c, nil
}

// NewIdle allocates a cluster without drawing any randomness: every
// stream is zero-state, no clock offsets or grid phases are sampled, and
// initially-crashed flags are not yet set. The cluster must be Reset
// before Start. Harnesses that always rewind from a run seed (the
// scenario runner, the latency-campaign harness) use it so assembly does
// no dead stream-derivation work.
func NewIdle(params Params) (*Cluster, error) { return build(params) }

// build allocates all cluster state — hosts, streams, pools — without
// consuming randomness; seed (or Reset) draws it.
func build(params Params) (*Cluster, error) {
	if params.N < 1 {
		return nil, fmt.Errorf("netsim: need at least 1 process, got %d", params.N)
	}
	def := DefaultParams(params.N)
	fillDefaults(&params, def)
	c := &Cluster{params: params, rand: &rng.Stream{}, linkRand: &rng.Stream{}}
	c.transits.new = c.makeTransit
	c.timers.new = c.makeTimer
	c.fires.new = c.makeFireCall
	c.calls.new = c.makeGuardedCall
	c.pauses.new = c.makePauseCall
	c.injects.new = c.makeInjectCall
	for i := 0; i < params.N; i++ {
		id := neko.ProcessID(i + 1)
		h := &host{
			c:         c,
			id:        id,
			netRand:   &rng.Stream{},
			schedRand: &rng.Stream{},
			pauseRand: &rng.Stream{},
		}
		h.startStackFn = func() { h.stack.Start() }
		h.pauseBodyFn = h.pauseBody
		c.hosts = append(c.hosts, h)
	}
	for _, id := range params.Crashed {
		if id < 1 || int(id) > params.N {
			return nil, fmt.Errorf("netsim: crashed process %d out of range 1..%d", id, params.N)
		}
	}
	return c, nil
}

// seed draws every piece of construction randomness from child streams of
// r — cluster and link streams, per-host clock offsets, scheduler streams
// and grid phases — and sets the initially-crashed flags. The consumption
// order is fixed (cluster streams, then hosts in id order) so New and
// Reset produce bit-identical state from the same r.
func (c *Cluster) seed(r *rng.Stream) {
	r.ChildInto(c.rand, 0xc1)
	r.ChildInto(c.linkRand, 0x400)
	for i, h := range c.hosts {
		h.clockOff = c.params.ClockSkew.Sample(c.rand)
		r.ChildInto(h.netRand, 0x100+uint64(i))
		r.ChildInto(h.schedRand, 0x200+uint64(i))
		r.ChildInto(h.pauseRand, 0x300+uint64(i))
		h.gridPhase = h.schedRand.Uniform(0, c.params.SleepGranularity)
	}
	for _, id := range c.params.Crashed {
		c.hosts[id-1].down = true
	}
}

// Reset rewinds the cluster to its initial state — virtual time zero,
// fresh host state, no injections in force — redrawing all construction
// randomness from child streams of r exactly as New does, without
// reallocating hosts, per-host streams, the DES event pool, or the
// pooled message/timer records. Running a reset cluster is bit-identical
// to running a freshly constructed one from the same stream; this is
// what lets campaign workers keep one cluster per worker and reuse it
// across Monte-Carlo replicas (the san.Sim.Reset treatment).
//
// Attached stacks stay attached, but their protocol state is not
// touched: the layers above (fd detectors, consensus engines) must be
// rewound by their own reset hooks. Every outstanding timer handle is
// invalidated wholesale; holders must discard handles without calling
// Stop. The tracer and phase observers are cleared, as on a fresh cluster.
func (c *Cluster) Reset(r *rng.Stream) {
	c.sim.Reset()
	c.delivered = 0
	c.timerCounts = TimerCounts{}
	c.hubFree = 0
	c.tracer = nil
	c.group = nil
	clear(c.links)
	c.phaseFns = c.phaseFns[:0]
	for _, h := range c.hosts {
		h.cpuFree = 0
		h.down = false
		h.epoch = 0
	}
	c.seed(r)
	// The wiped event queue held the callbacks of every in-flight pooled
	// record; reclaim them all, invalidating their outstanding handles
	// and dropping the closures they retain. Transits are reclaimed as
	// they are: their messages are pointer-free and pin nothing.
	for _, t := range c.timers.all {
		t.gen++
		t.released = true
		t.fn = nil
	}
	c.timers.reclaimAll()
	c.transits.reclaimAll()
	for _, fc := range c.fires.all {
		fc.t = nil
	}
	c.fires.reclaimAll()
	for _, g := range c.calls.all {
		g.fn = nil
	}
	c.calls.reclaimAll()
	c.pauses.reclaimAll()
	for _, ic := range c.injects.all {
		ic.h = nil
		ic.extra = nil
		ic.assign = nil
		ic.name = ""
	}
	c.injects.reclaimAll()
}

// fillDefaults replaces nil/zero stochastic fields with defaults.
func fillDefaults(p *Params, def Params) {
	if p.TSend == nil {
		p.TSend = def.TSend
	}
	if p.TReceive == nil {
		p.TReceive = def.TReceive
	}
	if p.TWire == nil {
		p.TWire = def.TWire
	}
	if p.SleepGranularity == 0 {
		p.SleepGranularity = def.SleepGranularity
	}
	if p.ThreadJitter == nil {
		p.ThreadJitter = def.ThreadJitter
	}
	if p.KernelLate == nil {
		p.KernelLate = def.KernelLate
	}
	if p.WakeTail == nil {
		p.WakeTail = def.WakeTail
		if p.WakeTailProb == 0 {
			p.WakeTailProb = def.WakeTailProb
		}
	}
	if p.PauseEvery == nil {
		p.PauseEvery = def.PauseEvery
	}
	if p.PauseDur == nil {
		p.PauseDur = def.PauseDur
	}
	if p.ClockSkew == nil {
		p.ClockSkew = def.ClockSkew
	}
	if p.FailedSend == nil {
		p.FailedSend = def.FailedSend
	}
}

// Context returns the execution context for process id, to be passed to
// protocol constructors before Attach.
func (c *Cluster) Context(id neko.ProcessID) neko.Context { return c.hostFor(id) }

func (c *Cluster) hostFor(id neko.ProcessID) *host {
	if id < 1 || int(id) > len(c.hosts) {
		panic(fmt.Sprintf("netsim: process id %d out of range", id))
	}
	return c.hosts[id-1]
}

// Attach binds a protocol stack to process id. The stack must have been
// built against Context(id).
func (c *Cluster) Attach(id neko.ProcessID, s *neko.Stack) {
	h := c.hostFor(id)
	if h.stack != nil {
		panic(fmt.Sprintf("netsim: process %d already has a stack", id))
	}
	h.stack = s
}

// SetTracer attaches a structured execution tracer to the cluster and its
// DES kernel (nil detaches both). Cluster.Reset detaches it again, so a
// traced campaign re-attaches after every reset, before compiling
// injections, keeping the schedule-event prefix in the trace.
func (c *Cluster) SetTracer(tr *trace.Tracer) {
	c.tracer = tr
	c.sim.SetTracer(tr)
}

// Now returns the global simulated time in milliseconds.
func (c *Cluster) Now() float64 { return c.sim.Now() }

// Delivered returns the number of messages delivered to stacks so far.
func (c *Cluster) Delivered() uint64 { return c.delivered }

// Start launches pause processes and starts every attached, non-crashed
// stack at virtual time zero (subject to nothing: Start itself runs
// immediately; protocol-level start skew is the caller's concern via
// StartAt).
func (c *Cluster) Start() {
	for _, h := range c.hosts {
		if c.params.PauseEvery.Mean() > 0 {
			h.scheduleNextPause()
		}
		if h.stack != nil && !h.down {
			c.sim.At(0, h.startStackFn)
		}
	}
}

// guardedCall is a pooled one-shot event callback that runs fn only if
// its host is still up at the scheduled instant (the StartAt guard).
type guardedCall struct {
	c     *Cluster
	h     *host
	fn    func()
	runFn func()
}

func (c *Cluster) makeGuardedCall() *guardedCall {
	g := &guardedCall{c: c}
	g.runFn = g.run
	return g
}

func (g *guardedCall) run() {
	h, fn := g.h, g.fn
	g.fn = nil
	g.c.calls.put(g)
	if h.down {
		return
	}
	fn()
}

// StartAt schedules fn on process id's host at the global time when that
// host's *local* clock reads localT — this is how the experiment harness
// implements "all processes propose at the same time t_0" under clock skew
// (§2.3, §4). fn does not run if the process is crashed by then.
func (c *Cluster) StartAt(id neko.ProcessID, localT float64, fn func()) {
	h := c.hostFor(id)
	globalT := localT - h.clockOff
	if globalT < c.sim.Now() {
		globalT = c.sim.Now()
	}
	g := c.calls.get()
	g.h, g.fn = h, fn
	c.sim.At(globalT, g.runFn)
}

// CrashAt schedules a crash of process id at global time t: from then on
// its timers stop firing and inbound messages are dropped at delivery
// time. A crashed process may be brought back with RecoverAt.
func (c *Cluster) CrashAt(id neko.ProcessID, t float64) {
	ic := c.inject(injCrash)
	ic.h = c.hostFor(id)
	c.at(t, ic.runFn)
}

// at schedules fn at global time t, clamped to now (injection helpers may
// be invoked mid-run with past instants).
func (c *Cluster) at(t float64, fn func()) {
	if t < c.sim.Now() {
		t = c.sim.Now()
	}
	c.sim.At(t, fn)
}

// AtGlobal schedules fn at global simulated time t, independent of any
// host (no scheduler lateness, unaffected by crashes). Experiment
// harnesses use it for campaign bookkeeping such as watchdogs.
func (c *Cluster) AtGlobal(t float64, fn func()) {
	if t < c.sim.Now() {
		t = c.sim.Now()
	}
	c.sim.At(t, fn)
}

// Run executes events until stop returns true or no events remain.
func (c *Cluster) Run(stop func() bool) float64 { return c.sim.Run(stop) }

// RunUntil executes events up to global time tmax.
func (c *Cluster) RunUntil(tmax float64) { c.sim.RunUntil(tmax) }

// Steps returns the number of DES events executed.
func (c *Cluster) Steps() uint64 { return c.sim.Steps() }

// --- host: CPU, pauses, scheduler ---

// reserveCPU reserves cost ms of CPU in FIFO order starting no earlier
// than the current time, and schedules fn at the completion instant.
// fn may be nil (pure occupancy, used for pauses).
func (h *host) reserveCPU(cost float64, fn func()) {
	now := h.c.sim.Now()
	start := now
	if h.cpuFree > start {
		start = h.cpuFree
	}
	end := start + cost
	h.cpuFree = end
	if fn != nil {
		h.c.sim.At(end, fn)
	}
}

// scheduleNextPause arms the host's next execution pause.
func (h *host) scheduleNextPause() {
	gap := h.c.params.PauseEvery.Sample(h.pauseRand)
	h.c.sim.After(gap, h.pauseBodyFn)
}

// pauseBody executes one background pause and arms the next; it is the
// preallocated callback behind scheduleNextPause.
func (h *host) pauseBody() {
	dur := h.c.params.PauseDur.Sample(h.pauseRand)
	h.reserveCPU(dur, nil)
	h.scheduleNextPause()
}

// wakeLateness samples, from r, the scheduler-induced delay of a timer
// wake-up requested for absolute time ideal: thread-scheduling jitter,
// plus an occasional deferral to the host's next absolute scheduler tick
// (the 10 ms jiffy grid of Linux 2.2), plus kernel wake-up latency. A
// timer draws it from a copy of schedRand taken at the arm, and a
// re-armed one only if the arm is still current at ideal (simTimer.Due);
// skipLateness keeps schedRand itself where this draw would leave it.
func (h *host) wakeLateness(r *rng.Stream, ideal float64) float64 {
	p := &h.c.params
	h.c.timerCounts.Draws++
	late := p.ThreadJitter.Sample(r)
	if p.GridProb > 0 && r.Float64() < p.GridProb {
		g := p.SleepGranularity
		next := float64(math.Ceil((ideal-h.gridPhase)/g)*g) + h.gridPhase
		if d := next - ideal; d > late {
			late = d
		}
	}
	if p.WakeTailProb > 0 && r.Float64() < p.WakeTailProb {
		late += p.WakeTail.Sample(r)
	}
	late += p.KernelLate.Sample(r)
	return late
}

// skipLateness advances schedRand exactly as wakeLateness would, without
// its transforms: the grid deferral's draw only decides a branch that
// draws nothing more.
func (h *host) skipLateness() {
	p, r := &h.c.params, h.schedRand
	dist.Skip(p.ThreadJitter, r)
	if p.GridProb > 0 {
		r.Uint64()
	}
	if p.WakeTailProb > 0 && r.Float64() < p.WakeTailProb {
		dist.Skip(p.WakeTail, r)
	}
	dist.Skip(p.KernelLate, r)
}

// --- neko.Context implementation ---

// ID implements neko.Context.
func (h *host) ID() neko.ProcessID { return h.id }

// N implements neko.Context.
func (h *host) N() int { return h.c.params.N }

// Now implements neko.Context: the host's local clock.
func (h *host) Now() float64 { return h.c.sim.Now() + h.clockOff }

// transit is a pooled record carrying one message through the pipeline:
// sender CPU (TSend) → hub (TWire, FIFO) → receiver CPU (TReceive, plus
// occasional Tail latency) → stack dispatch — the seven-step
// decomposition of Fig. 3 in the paper. Its stage closures are allocated
// once per record, so steady-state delivery allocates nothing. A record
// returns to the pool without scrubbing: its message is plain data.
type transit struct {
	c                                *Cluster
	src, dst                         *host
	m                                neko.Message
	sendFn, hubFn, deliverFn, recvFn func()
}

func (c *Cluster) makeTransit() *transit {
	t := &transit{c: c}
	t.sendFn = t.send
	t.hubFn = t.hub
	t.deliverFn = t.deliver
	t.recvFn = t.recv
	return t
}

// Send implements neko.Context. See transit for the pipeline.
func (h *host) Send(m neko.Message) {
	if m.To == h.id {
		panic("netsim: send to self (protocols must short-circuit local delivery)")
	}
	if m.To < 1 || int(m.To) > h.c.params.N {
		panic(fmt.Sprintf("netsim: send to unknown process %d", m.To))
	}
	m.From = h.id
	c := h.c
	if c.tracer != nil {
		c.tracer.Emit(trace.Event{T: c.sim.Now(), P: int32(m.From), Q: int32(m.To), Kind: trace.KindSend, S: m.Payload.Kind.String()})
	}
	// A send to an already-crashed peer fails fast (TCP reset): it costs
	// the sender the exception path and never reaches the medium.
	if !c.params.CrashedConsumeWire && c.hostFor(m.To).down {
		if c.tracer != nil {
			c.tracer.Emit(trace.Event{T: c.sim.Now(), P: int32(m.From), Q: int32(m.To), Kind: trace.KindDrop, B: trace.DropFailedSend, S: m.Payload.Kind.String()})
		}
		h.reserveCPU(c.params.FailedSend.Sample(h.netRand), nil)
		return
	}
	t := c.transits.get()
	t.src, t.dst, t.m = h, c.hostFor(m.To), m
	// Step 1-2: sending queue + CPU_i for t_send.
	h.reserveCPU(c.params.TSend.Sample(h.netRand), t.sendFn)
}

// send runs step 3-4: network queue + shared medium for t_net.
func (t *transit) send() {
	c := t.c
	wire := c.params.TWire.Sample(t.src.netRand)
	start := c.sim.Now()
	if c.hubFree > start {
		start = c.hubFree
	}
	end := start + wire
	c.hubFree = end
	c.sim.At(end, t.hubFn)
}

// hub runs at the hub boundary: the frame has consumed sender CPU and
// medium time; partition and per-link degradation rules apply here.
func (t *transit) hub() {
	c := t.c
	if c.partitioned(t.m.From, t.m.To) {
		if c.tracer != nil {
			c.tracer.Emit(trace.Event{T: c.sim.Now(), P: int32(t.m.From), Q: int32(t.m.To), Kind: trace.KindDrop, B: trace.DropPartition, S: t.m.Payload.Kind.String()})
		}
		c.transits.put(t)
		return
	}
	extra := 0.0
	if rule, ok := c.links[linkKey{t.m.From, t.m.To}]; ok {
		if rule.Loss > 0 && c.linkRand.Float64() < rule.Loss {
			if c.tracer != nil {
				c.tracer.Emit(trace.Event{T: c.sim.Now(), P: int32(t.m.From), Q: int32(t.m.To), Kind: trace.KindDrop, B: trace.DropLinkLoss, S: t.m.Payload.Kind.String()})
			}
			c.transits.put(t)
			return
		}
		if rule.ExtraDelay != nil {
			extra = rule.ExtraDelay.Sample(c.linkRand)
		}
	}
	if extra > 0 {
		c.sim.At(c.sim.Now()+extra, t.deliverFn)
	} else {
		t.deliver()
	}
}

// deliver runs step 5-6: receiving queue + CPU_j for t_receive.
func (t *transit) deliver() {
	t.dst.reserveCPU(t.c.params.TReceive.Sample(t.dst.netRand), t.recvFn)
}

// recv runs step 7: the message is received by p_j. The record is
// released before dispatch so sends triggered by the handler reuse it.
func (t *transit) recv() {
	c, dst := t.c, t.dst
	c.dmsg = t.m
	m := &c.dmsg
	c.transits.put(t)
	if dst.down || dst.stack == nil {
		if c.tracer != nil {
			c.tracer.Emit(trace.Event{T: c.sim.Now(), P: int32(m.To), Q: int32(m.From), Kind: trace.KindDrop, B: trace.DropDown, S: m.Payload.Kind.String()})
		}
		return
	}
	c.delivered++
	if c.tracer != nil {
		c.tracer.Emit(trace.Event{T: c.sim.Now(), P: int32(m.To), Q: int32(m.From), Kind: trace.KindDeliver, S: m.Payload.Kind.String()})
	}
	dst.stack.Dispatch(m)
}

// simTimer implements neko.TimerHandle. Records are pooled per cluster:
// Stop retires the record to the free list immediately, and Cluster.Reset
// reclaims all of them, so a handle is valid from SetTimer until Stop
// (the neko.TimerHandle contract). gen disambiguates arms for the pooled
// fire callbacks, exactly as des event records do.
//
// A timer's wake-up is filed lazily (des.Sim.AtLazy). An arm takes the
// sequence number the wake-up would take and keeps a copy of schedRand as
// it stood. With no event of the record queued, it draws the lateness
// from the copy at once and files the wake-up at its due time. Otherwise
// it advances schedRand past the draws the wake-up would make
// (skipLateness) and leaves the queued event where it is, if that is at
// or before the arm's ideal instant, or moves it there. Due draws the
// lateness from the copy only when the event reaches the ideal instant of
// an arm still current. So every wake-up runs at the key an eager draw
// would have given it, and a heartbeat timer re-armed on every message
// pays neither the draw nor the queue churn.
type simTimer struct {
	h        *host
	handle   des.Handle
	epoch    uint64
	gen      uint64
	stopped  bool
	released bool
	fn       func()
	fireFn   func()
	// The current arm: its ideal instant and sequence number, schedRand
	// as it stood at the arm, and the due time, once drawn.
	ideal float64
	seq   uint64
	late  rng.Stream
	due   float64
	drawn bool
}

func (c *Cluster) makeTimer() *simTimer {
	t := &simTimer{}
	t.fireFn = t.fire
	return t
}

func (c *Cluster) releaseTimer(t *simTimer) {
	t.gen++
	t.released = true
	t.fn = nil
	c.timers.put(t)
}

// Stop implements neko.TimerHandle. The record returns to the pool, so
// Stop must be called at most once and the handle discarded afterwards.
func (t *simTimer) Stop() {
	if t.released {
		return
	}
	t.stopped = true
	c := t.h.c
	if c.tracer != nil {
		c.tracer.Emit(trace.Event{T: c.sim.Now(), P: int32(t.h.id), Kind: trace.KindTimerStop})
	}
	t.cancel()
	c.releaseTimer(t)
}

// Reset implements neko.TimerHandle: it re-arms the timer as Stop and a
// SetTimer of the same callback would, trace records included, on the
// same record.
func (t *simTimer) Reset(d float64) {
	if t.released {
		panic("netsim: Reset of a stopped timer")
	}
	c := t.h.c
	if c.tracer != nil {
		c.tracer.Emit(trace.Event{T: c.sim.Now(), P: int32(t.h.id), Kind: trace.KindTimerStop})
	}
	t.gen++ // a wake-up already waiting for the CPU belongs to the old arm
	t.h.arm(t, d)
}

// cancel takes the timer's event, if queued, off the event queue.
func (t *simTimer) cancel() {
	if t.handle.Valid() {
		t.h.c.timerCounts.QueueOps++
		t.h.c.sim.Cancel(t.handle)
	}
}

// arm files t's wake-up for d ms from now (see simTimer).
func (h *host) arm(t *simTimer, d float64) {
	if d < 0 {
		d = 0
	}
	c := h.c
	c.timerCounts.Arms++
	t.epoch = h.epoch
	t.ideal, t.seq = c.sim.Now()+d, c.sim.Reserve()
	t.late, t.drawn = *h.schedRand, false
	queued := t.handle.Valid()
	if queued {
		h.skipLateness()
	} else {
		t.draw() // nothing queued to leave in place: nothing to defer
		*h.schedRand = t.late
	}
	if c.tracer != nil {
		c.tracer.Emit(trace.Event{T: c.sim.Now(), P: int32(h.id), Kind: trace.KindTimerArm, X: t.ideal})
		c.tracer.Emit(trace.Event{T: c.sim.Now(), Kind: trace.KindSchedule, X: t.draw()})
	}
	switch {
	case !queued:
		t.file(t.due)
	case t.handle.Time() > t.ideal:
		t.cancel()
		t.file(t.ideal)
	}
	// Otherwise the queued event stays, re-keyed when it heads the queue.
}

// file queues t's wake-up at the provisional key (at, t.seq).
func (t *simTimer) file(at float64) {
	t.h.c.timerCounts.QueueOps++
	t.handle = t.h.c.sim.AtLazy(at, t.seq, t.fireFn, t)
}

// draw returns the current arm's due time, drawing its lateness from the
// schedRand copy the first time.
func (t *simTimer) draw() float64 {
	if !t.drawn {
		t.due = t.ideal + t.h.wakeLateness(&t.late, t.ideal)
		t.drawn = true
	}
	return t.due
}

// Due implements des.Lazy. An event filed for an arm that a later one
// replaced moves to the current arm's ideal instant; the current arm's
// event moves to its due time, drawn now, and runs there.
func (t *simTimer) Due(at float64, seq uint64) (float64, uint64) {
	due := t.ideal
	if seq == t.seq || t.drawn {
		due = t.draw()
	}
	if due != at || seq != t.seq {
		t.h.c.timerCounts.QueueOps += 2
	}
	return due, t.seq
}

// fire is the timer's wake-up event: the callback needs the CPU (zero
// cost, but FIFO behind pauses and in-flight receive processing), so it
// is routed through reserveCPU via a pooled fireCall that remembers which
// incarnation of the record armed it.
func (t *simTimer) fire() {
	t.h.c.timerCounts.Wakeups++
	fc := t.h.c.fires.get()
	fc.t, fc.gen = t, t.gen
	t.h.reserveCPU(0, fc.runFn)
}

// fireCall is the pooled CPU-queue callback of a timer firing.
type fireCall struct {
	c     *Cluster
	t     *simTimer
	gen   uint64
	runFn func()
}

func (c *Cluster) makeFireCall() *fireCall {
	fc := &fireCall{c: c}
	fc.runFn = fc.run
	return fc
}

func (fc *fireCall) run() {
	t, gen := fc.t, fc.gen
	fc.t = nil
	fc.c.fires.put(fc)
	h := t.h
	// A mismatched generation means the record was stopped (and possibly
	// recycled into a different timer) between wake-up and CPU grant —
	// the same suppression the pre-pool code got from its per-arm
	// stopped flag.
	if t.gen != gen || t.stopped || h.down || t.epoch != h.epoch {
		return
	}
	if c := h.c; c.tracer != nil {
		c.tracer.Emit(trace.Event{T: c.sim.Now(), P: int32(h.id), Kind: trace.KindTimerFire})
	}
	t.fn()
}

// SetTimer implements neko.Context. The callback is subject to scheduler
// lateness and runs through the host CPU queue (so pauses defer it). A
// timer armed before a crash never fires, even if the host has recovered
// by its due time (crashes wipe the process's pending timers).
func (h *host) SetTimer(d float64, fn func()) neko.TimerHandle {
	t := h.c.timers.get()
	t.h = h
	t.stopped = false
	t.released = false
	t.fn = fn
	h.arm(t, d)
	return t
}

var _ neko.Context = (*host)(nil)
