// Package sanmodel builds the paper's SAN model of the Chandra–Toueg ◇S
// consensus algorithm (§3) on top of the internal/san engine, with:
//
//   - one submodel per process (the rotating coordinator prevents a
//     parametric REP, §3.2), joined through shared places;
//   - the state machine of one round: coordinator actions (P1C), the
//     participant actions P1A1 (send estimate), P1A2a (positive ack on
//     proposal), P1A2b (negative ack on suspicion), and the new-round
//     submodel P1A3 holding the round number modulo n (§3.2);
//   - the contention-aware network model of §3.3: per-process CPU
//     resources and one shared network resource, with the seven-step
//     message decomposition t_send → t_net → t_receive; broadcasts are a
//     single message with a larger t_net (§5.1);
//   - the abstract failure-detector submodels of §3.4: one two-state
//     (Trust/Susp) process per ordered pair, alternating with
//     deterministic or exponential sojourn times derived from the QoS
//     metrics T_MR and T_M, initialized by an instantaneous activity with
//     case probabilities (Fig. 5).
//
// Message round numbers are tracked modulo n, the paper's simplification:
// "the algorithm only takes the messages of the last n−1 rounds into
// account" (§3.2). Rounds map to tags tag(r) = r mod n; the coordinator of
// a tag is the unique process p with p ≡ tag (mod n), so a message's tag
// determines its coordinator and no per-destination routing is needed.
package sanmodel

import (
	"fmt"

	"ctsan/internal/dist"
	"ctsan/internal/san"
)

// FDDistKind selects the sojourn-time distribution of the FD submodels
// (§3.4: "a deterministic and an exponential distribution, so to have, for
// the same mean value, a distribution with the minimum variance (0) and a
// distribution with a high variance").
type FDDistKind int

const (
	// FDDeterministic uses point-mass sojourns.
	FDDeterministic FDDistKind = iota
	// FDExponential uses exponential sojourns.
	FDExponential
)

// FDModel are the QoS parameters feeding the failure-detector submodels.
type FDModel struct {
	// TMR is the mean mistake recurrence time, TM the mean mistake
	// duration (ms). TMR 0 disables wrong suspicions entirely
	// (class-1/class-2 runs).
	TMR, TM float64
	Kind    FDDistKind
}

// Params configures one build of the consensus SAN model.
type Params struct {
	N int
	// TSend is the (deterministic) CPU occupancy for sending a message;
	// TReceive for receiving. §5.1 fixes both to 0.025 ms.
	TSend, TReceive float64
	// NetUnicast is the network-resource occupancy distribution of a
	// unicast message: the measured end-to-end delay minus 2·t_send
	// (§5.1). NetBroadcast likewise for the single-message broadcast.
	NetUnicast, NetBroadcast dist.Dist
	// FD configures wrong suspicions (class 3).
	FD FDModel
	// Crashed processes are initially crashed (class 2): they never act,
	// and every correct process suspects them from the beginning.
	Crashed []int
	// MaxRoundsGuard aborts pathological runs; 0 means 64·n.
	MaxRoundsGuard int

	// UnicastBroadcast is an ablation of the §5.1 modeling choice: when
	// set, broadcasts are modeled as n−1 unicast messages in ascending
	// destination order (like the implementation) instead of one message
	// with a larger t_net. With it, the SAN reproduces the measured n = 3
	// participant-crash anomaly that the paper's model misses (§5.3).
	UnicastBroadcast bool
	// FDCorrelated is an ablation of the §3.4 independence assumption:
	// when set, all observers of a process q share one Trust/Susp state,
	// the extreme opposite of independent per-pair detectors. The paper
	// names the independence assumption as the main reason the model
	// deviates from measurements at small timeouts (§5.4).
	FDCorrelated bool
}

// DefaultParams returns the paper's parameterization (§5.1/§5.2):
// t_send = t_receive = 0.025 ms, unicast t_net from the bi-modal fit minus
// 2·t_send, and the broadcast t_net enlarged per the Fig. 6 broadcast
// measurements.
func DefaultParams(n int) Params {
	return Params{
		N:        n,
		TSend:    0.025,
		TReceive: 0.025,
		// U[0.1,0.13] and U[0.145,0.35] shifted by -2·0.025.
		NetUnicast: dist.Bimodal(0.8, 0.050, 0.080, 0.095, 0.300),
		// Broadcast-to-n end-to-end delays are larger (Fig. 6); the scale
		// factor is refit from measurements via fit.ScaleBimodal when the
		// experiment harness drives the model.
		NetBroadcast: dist.Bimodal(0.8, 0.050*broadcastScale(n), 0.080*broadcastScale(n),
			0.095*broadcastScale(n), 0.300*broadcastScale(n)),
	}
}

// broadcastScale approximates how much larger the broadcast t_net is than
// the unicast t_net for n destinations, consistent with the Fig. 6 curves
// (broadcast-to-5 roughly doubles the unicast delay). An n below 1, which
// Check rejects, scales as n = 1, so DefaultParams never builds an
// inverted interval.
func broadcastScale(n int) float64 { return 1 + float64(0.25*float64(max(n, 1)-1)) }

// Model is the built SAN consensus model plus the handles needed to define
// reward variables (stop conditions, latency measures).
type Model struct {
	SAN     *san.Model
	Params  Params
	Decided []*san.Place // Decided[i-1]: process i has decided (1..n)
	// RoundOf[i-1] holds the current round tag of process i (for tests).
	RoundOf []*san.Place
	// RoundsTotal counts round advances across all processes; Aborted is
	// marked when the MaxRoundsGuard trips.
	RoundsTotal *san.Place
	Aborted     *san.Place
}

// AnyDecided reports whether some process has decided in marking mk — the
// stop condition of the latency reward variable (§2.3: "t_1 is the time at
// which the first process decides").
func (m *Model) AnyDecided(mk *san.Marking) bool {
	for _, p := range m.Decided {
		if mk.Get(p) > 0 {
			return true
		}
	}
	return false
}

// Done reports whether the run is over: a decision was reached or the
// rounds guard tripped.
func (m *Model) Done(mk *san.Marking) bool {
	return m.AnyDecided(mk) || mk.Get(m.Aborted) > 0
}

// process-local build state.
type proc struct {
	id        int // 1..n
	crashed   bool
	start     *san.Place // token: about to start a round (INIT)
	waitProp  *san.Place // participant waiting for the proposal
	collect   *san.Place // coordinator collecting estimates
	waitAck   *san.Place // coordinator waiting for acks
	decided   *san.Place
	round     *san.Place   // current round tag (0..n-1); round 1 has tag 1
	estCnt    []*san.Place // per tag: estimates received as coordinator
	ackCnt    []*san.Place // per tag
	nackCnt   []*san.Place // per tag
	propSeen  []*san.Place // per tag: proposal arrived early
	cpu       *san.Place   // CPU resource (1 token)
	suspects  []*san.Place // suspects[j-1]: this process suspects j (marking 1)
	estPipe   []pipe       // per tag: estimate to coord(tag)
	ackPipe   []pipe       // per tag
	nackPipe  []pipe
	propPipe  pipe // broadcast pipeline, source = this process
	decidePip pipe
}

// pipe is one message pipeline: sendq -> (cpu_src, t_send) -> netq ->
// (network, t_net) -> recvq -> (cpu_dst, t_receive) -> delivery.
type pipe struct {
	sendq, netq, recvq *san.Place
}

type builder struct {
	p       Params
	m       *san.Model
	network *san.Place
	rounds  *san.Place // total round advances across all processes
	aborted *san.Place // rounds guard tripped
	procs   []*proc
	maj     int
}

// Check reports the first rule a transient study of the model for p —
// replicas replicas to horizon tmax — breaks: the model's own (Build) or
// the solver's (san.TransientSpec.Check). Simulate makes both checks.
func Check(p Params, replicas int, tmax float64) error {
	if err := p.check(); err != nil {
		return err
	}
	return san.TransientSpec{Replicas: replicas, Tmax: tmax}.Check()
}

// check reports the first rule p breaks: at least two processes, positive
// CPU costs, both network delays, FD QoS the submodels of §3.4 can
// represent (TMR 0 for none, else 0 < TM < TMR) with a known sojourn
// kind, and initially crashed ids in 1..n leaving a correct majority.
func (p *Params) check() error {
	switch {
	case p.N < 2:
		return fmt.Errorf("sanmodel: need n >= 2, got %d", p.N)
	case p.TSend <= 0 || p.TReceive <= 0:
		return fmt.Errorf("sanmodel: zero or negative t_send %g or t_receive %g", p.TSend, p.TReceive)
	case p.NetUnicast == nil || p.NetBroadcast == nil:
		return fmt.Errorf("sanmodel: missing network delay distributions")
	case p.FD.TMR < 0 || p.FD.TM < 0:
		return fmt.Errorf("sanmodel: negative FD QoS TMR=%g TM=%g (TMR 0 disables wrong suspicions)", p.FD.TMR, p.FD.TM)
	case p.FD.TMR > 0 && !(0 < p.FD.TM && p.FD.TM < p.FD.TMR):
		return fmt.Errorf("sanmodel: FD QoS needs 0 < TM < TMR, got TM=%g TMR=%g", p.FD.TM, p.FD.TMR)
	case p.FD.Kind != FDDeterministic && p.FD.Kind != FDExponential:
		return fmt.Errorf("sanmodel: unknown FD distribution kind %d", p.FD.Kind)
	}
	for _, c := range p.Crashed {
		if c < 1 || c > p.N {
			return fmt.Errorf("sanmodel: crashed process %d out of range 1..%d", c, p.N)
		}
	}
	if len(p.Crashed) >= (p.N+1)/2 {
		return fmt.Errorf("sanmodel: %d crashes violate the majority-correct requirement for n=%d", len(p.Crashed), p.N)
	}
	return nil
}

// Build constructs the SAN model for the given parameters.
func Build(p Params) (*Model, error) {
	if err := p.check(); err != nil {
		return nil, err
	}
	if p.MaxRoundsGuard == 0 {
		p.MaxRoundsGuard = 64 * p.N
	}
	b := &builder{p: p, m: san.NewModel(fmt.Sprintf("ct-consensus-n%d", p.N)), maj: p.N/2 + 1}
	b.network = b.m.Place("Network", 1)
	b.rounds = b.m.Place("RoundsTotal", 0)
	b.aborted = b.m.Place("Aborted", 0)
	crashed := make(map[int]bool)
	for _, c := range p.Crashed {
		crashed[c] = true
	}
	for i := 1; i <= p.N; i++ {
		b.procs = append(b.procs, b.buildProcessPlaces(i, crashed[i]))
	}
	for i := 1; i <= p.N; i++ {
		b.buildPipelines(b.procs[i-1])
	}
	// The correlated-FD ablation rebinds suspicion places; it must run
	// before the state machines capture them in their gates.
	if p.FDCorrelated {
		b.buildCorrelatedFD(crashed)
	}
	for i := 1; i <= p.N; i++ {
		b.buildStateMachine(b.procs[i-1])
	}
	if !p.FDCorrelated {
		for i := 1; i <= p.N; i++ {
			b.buildFD(b.procs[i-1], crashed)
		}
	}
	model := &Model{SAN: b.m, Params: p, RoundsTotal: b.rounds, Aborted: b.aborted}
	for _, pr := range b.procs {
		model.Decided = append(model.Decided, pr.decided)
		model.RoundOf = append(model.RoundOf, pr.round)
	}
	if err := b.m.Validate(); err != nil {
		return nil, err
	}
	return model, nil
}

// coordOf returns the coordinator process id (1..n) of a round tag.
func (b *builder) coordOf(tag int) int {
	c := tag % b.p.N
	if c == 0 {
		c = b.p.N
	}
	return c
}

// buildProcessPlaces creates the per-process places.
func (b *builder) buildProcessPlaces(id int, crashed bool) *proc {
	ns := b.m.Namespace(fmt.Sprintf("P%d", id))
	pr := &proc{id: id, crashed: crashed}
	start := 0
	if !crashed {
		start = 1
	}
	pr.start = ns.Place("Start", start)
	pr.waitProp = ns.Place("WaitProp", 0)
	pr.collect = ns.Place("Collect", 0)
	pr.waitAck = ns.Place("WaitAck", 0)
	pr.decided = ns.Place("Decided", 0)
	pr.round = ns.Place("Round", 1%b.p.N) // round 1 -> tag 1 (tag 0 for n=1, impossible)
	pr.cpu = ns.Place("CPU", 1)
	for tag := 0; tag < b.p.N; tag++ {
		pr.estCnt = append(pr.estCnt, ns.Place(fmt.Sprintf("EstCnt%d", tag), 0))
		pr.ackCnt = append(pr.ackCnt, ns.Place(fmt.Sprintf("AckCnt%d", tag), 0))
		pr.nackCnt = append(pr.nackCnt, ns.Place(fmt.Sprintf("NackCnt%d", tag), 0))
		pr.propSeen = append(pr.propSeen, ns.Place(fmt.Sprintf("PropSeen%d", tag), 0))
	}
	for j := 1; j <= b.p.N; j++ {
		init := 0
		if j != id && crashedInit(b.p.Crashed, j) {
			init = 1 // class 2: the crashed process is suspected from the beginning
		}
		pr.suspects = append(pr.suspects, ns.Place(fmt.Sprintf("Susp%d", j), init))
	}
	return pr
}

func crashedInit(crashed []int, j int) bool {
	for _, c := range crashed {
		if c == j {
			return true
		}
	}
	return false
}
