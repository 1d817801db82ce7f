// Package fd implements the paper's failure detection machinery:
//
//   - Heartbeat: the push-style heartbeat failure detector of §2.2. Every
//     process sends a heartbeat to all others every T_h milliseconds; a
//     process p suspects q when it has received no message (heartbeat or
//     application message) from q for longer than the timeout T, and stops
//     suspecting upon the next message from q.
//   - Oracle: a perfect failure detector with a static suspicion list, used
//     for class-1 runs (suspects nobody) and class-2 runs (suspects exactly
//     the initially crashed process — "complete and accurate", §2.4).
//   - History / QoS: recording of trust↔suspect transitions, folded per
//     ordered pair as they happen, and estimation of the
//     Chen-Toueg-Aguilera quality-of-service metrics (mistake recurrence
//     time T_MR, mistake duration T_M, detection time T_D) using the
//     equations of §4.
package fd

import (
	"fmt"
	"math"
	"sync"

	"ctsan/internal/neko"
	"ctsan/internal/trace"
)

// Heartbeat is the push-style heartbeat failure detector. It is a
// neko.Protocol layer and implements neko.FailureDetector.
type Heartbeat struct {
	ctx     neko.Context
	self    neko.ProcessID // ctx.ID(), read on every observed message
	timeout float64        // T: suspect after this long without any message
	period  float64        // T_h: heartbeat emission period
	seq     uint64
	// state per monitored process (1-based, self unused)
	suspected []bool
	lastMsg   []float64
	timers    []neko.TimerHandle
	watchers  []func(q neko.ProcessID, suspected bool)
	history   *History
	stopped   bool
	// expireFns[q] and emitFn are the timer callbacks, allocated once at
	// construction: arming a suspicion timer on every observed message is
	// the detector's hot path and must not allocate.
	expireFns []func()
	emitFn    func()
	// emitTimer is the handle of the emission timer. It is re-armed only
	// once fired, never while pending — cancelling a pending emission
	// would change the executed-event count.
	emitTimer neko.TimerHandle
	// tr, if set, records heartbeat emissions/receptions and suspicion
	// transitions into the replica's trace ring. Reset detaches it, like
	// Cluster.Reset; a traced campaign re-attaches after every reset.
	tr *trace.Tracer
}

// SetTracer attaches (nil detaches) a structured execution tracer.
func (hb *Heartbeat) SetTracer(tr *trace.Tracer) { hb.tr = tr }

var (
	_ neko.Protocol        = (*Heartbeat)(nil)
	_ neko.FailureDetector = (*Heartbeat)(nil)
)

// NewHeartbeat creates the failure detector for the given stack with
// timeout T and heartbeat period Th (both ms; the paper fixes
// Th = 0.7·T, §5.4). It registers itself as a tap (any message from q
// resets q's timer) and as the handler for heartbeat messages. history may
// be nil if QoS recording is not needed.
func NewHeartbeat(stack *neko.Stack, timeoutT, periodTh float64, history *History) *Heartbeat {
	if timeoutT <= 0 || periodTh <= 0 {
		panic(fmt.Sprintf("fd: non-positive timeout %g or period %g", timeoutT, periodTh))
	}
	ctx := stack.Context()
	hb := &Heartbeat{
		ctx:       ctx,
		self:      ctx.ID(),
		timeout:   timeoutT,
		period:    periodTh,
		suspected: make([]bool, ctx.N()+1),
		lastMsg:   make([]float64, ctx.N()+1),
		timers:    make([]neko.TimerHandle, ctx.N()+1),
		history:   history,
	}
	hb.emitFn = hb.emit
	hb.expireFns = make([]func(), ctx.N()+1)
	for q := neko.ProcessID(1); int(q) <= ctx.N(); q++ {
		q := q
		hb.expireFns[q] = func() { hb.expire(q) }
	}
	stack.Tap(hb.observe)
	stack.Handle(neko.PayloadHB, func(*neko.Message) {}) // content is irrelevant; the tap did the work
	stack.AddLayer(hb)
	return hb
}

// Reset rewinds the detector to its just-constructed state so one
// detector instance can serve successive campaign replicas, recording
// into a fresh (or freshly reset) history. It must be called after the
// executor itself has been reset (netsim.Cluster.Reset), which
// invalidates every outstanding timer wholesale: the stale handles are
// discarded here without Stop, per the Cluster.Reset contract.
func (hb *Heartbeat) Reset(history *History) {
	hb.seq = 0
	hb.stopped = false
	hb.history = history
	hb.emitTimer = nil
	hb.tr = nil
	for q := range hb.timers {
		hb.timers[q] = nil
		hb.suspected[q] = false
		hb.lastMsg[q] = 0
	}
}

// Start implements neko.Protocol: begins heartbeat emission and arms the
// suspicion timers for all peers.
func (hb *Heartbeat) Start() {
	// On a crash-recovery restart the previous emission timer may still
	// be pending (its firing is epoch-suppressed by the executor); it
	// must be dropped, not stopped — cancelling it would change the
	// executed-event count relative to the pre-pooling behavior.
	hb.emitTimer = nil
	now := hb.ctx.Now()
	for q := neko.ProcessID(1); int(q) <= hb.ctx.N(); q++ {
		if q == hb.ctx.ID() {
			continue
		}
		hb.lastMsg[q] = now
		hb.armTimer(q)
	}
	hb.emit()
}

// Stop ceases heartbeat emission and suspicion updates (used when an
// experiment ends; the paper stops FD activity once a decision is taken,
// §3.4).
func (hb *Heartbeat) Stop() {
	if hb.stopped {
		return
	}
	hb.stopped = true
	for q, t := range hb.timers {
		if t != nil {
			t.Stop()
			hb.timers[q] = nil // handles are single-use; drop after Stop
		}
	}
}

// emit broadcasts one heartbeat and schedules the next emission by
// re-arming the previous emission's handle, necessarily fired by now.
func (hb *Heartbeat) emit() {
	if hb.stopped {
		return
	}
	hb.seq++
	if hb.tr != nil {
		hb.tr.Emit(trace.Event{T: hb.ctx.Now(), P: int32(hb.ctx.ID()), Kind: trace.KindHBEmit, A: int64(hb.seq)})
	}
	neko.Broadcast(hb.ctx, neko.Message{Payload: neko.Payload{Kind: neko.PayloadHB, Seq: hb.seq}})
	if hb.emitTimer != nil {
		hb.emitTimer.Reset(hb.period)
		return
	}
	hb.emitTimer = hb.ctx.SetTimer(hb.period, hb.emitFn)
}

// observe is the stack tap: any message from q resets q's timer and clears
// a standing suspicion (§2.2).
func (hb *Heartbeat) observe(m *neko.Message) {
	if hb.stopped || m.From == hb.self || m.From < 1 || int(m.From) >= len(hb.lastMsg) {
		return
	}
	now := hb.ctx.Now()
	hb.lastMsg[m.From] = now
	if hb.tr != nil && m.Payload.Kind == neko.PayloadHB {
		hb.tr.Emit(trace.Event{T: now, P: int32(hb.self), Q: int32(m.From), Kind: trace.KindHBRecv, A: int64(m.Payload.Seq)})
	}
	if hb.suspected[m.From] {
		hb.suspected[m.From] = false
		hb.transition(m.From, false)
	}
	hb.armTimer(m.From)
}

// armTimer (re)arms the suspicion timer for q at T from now. It runs on
// every observed message, so it re-arms q's handle (Reset) rather than
// stopping it and arming a new one: the emulator then defers the
// wake-up's work until the timer is due, and nothing allocates.
func (hb *Heartbeat) armTimer(q neko.ProcessID) {
	if t := hb.timers[q]; t != nil {
		t.Reset(hb.timeout)
		return
	}
	hb.timers[q] = hb.ctx.SetTimer(hb.timeout, hb.expireFns[q])
}

// expire handles a suspicion timer firing for q.
func (hb *Heartbeat) expire(q neko.ProcessID) {
	if hb.stopped {
		return
	}
	// The timer may fire late (scheduler); if a message from q arrived in
	// the meantime, armTimer already re-armed the handle, which prevents
	// this call. Still, re-check the guard condition.
	if hb.ctx.Now()-hb.lastMsg[q] < hb.timeout {
		return
	}
	if !hb.suspected[q] {
		hb.suspected[q] = true
		hb.transition(q, true)
	}
}

// transition records a suspicion change and notifies watchers.
func (hb *Heartbeat) transition(q neko.ProcessID, suspected bool) {
	if hb.tr != nil {
		if suspected {
			// X carries the last-message time so the explain mode can print
			// how long q had been silent when the suspicion was raised.
			hb.tr.Emit(trace.Event{T: hb.ctx.Now(), P: int32(hb.ctx.ID()), Q: int32(q), Kind: trace.KindSuspect, X: hb.lastMsg[q]})
		} else {
			hb.tr.Emit(trace.Event{T: hb.ctx.Now(), P: int32(hb.ctx.ID()), Q: int32(q), Kind: trace.KindTrust})
		}
	}
	if hb.history != nil {
		hb.history.Record(hb.ctx.ID(), q, suspected, hb.ctx.Now())
	}
	for _, w := range hb.watchers {
		w(q, suspected)
	}
}

// Suspects implements neko.FailureDetector.
func (hb *Heartbeat) Suspects(q neko.ProcessID) bool {
	if q < 1 || int(q) > hb.ctx.N() {
		return false
	}
	return hb.suspected[q]
}

// OnChange implements neko.FailureDetector.
func (hb *Heartbeat) OnChange(fn func(q neko.ProcessID, suspected bool)) {
	hb.watchers = append(hb.watchers, fn)
}

// Oracle is a failure detector with a fixed suspicion list: complete and
// accurate with respect to the configured crash pattern (§2.4 class 2), or
// empty for class-1 runs.
type Oracle struct {
	suspects map[neko.ProcessID]bool
}

var _ neko.FailureDetector = (*Oracle)(nil)

// NewOracle creates an oracle suspecting exactly the listed processes.
func NewOracle(suspects ...neko.ProcessID) *Oracle {
	o := &Oracle{suspects: make(map[neko.ProcessID]bool, len(suspects))}
	for _, q := range suspects {
		o.suspects[q] = true
	}
	return o
}

// Suspects implements neko.FailureDetector.
func (o *Oracle) Suspects(q neko.ProcessID) bool { return o.suspects[q] }

// OnChange implements neko.FailureDetector. The oracle never changes, so
// the callback is retained but never invoked.
func (o *Oracle) OnChange(func(q neko.ProcessID, suspected bool)) {}

// Transition is one recorded trust↔suspect state change of the failure
// detector at observer P monitoring Q.
type Transition struct {
	P, Q      neko.ProcessID
	Suspected bool
	At        float64
}

// History accumulates failure-detector transitions across all processes of
// an experiment. It is safe for concurrent use (real-time executors run
// processes on separate goroutines).
//
// Each transition is folded into its ordered pair's QoS state as it is
// recorded, so EstimateQoS reads n(n−1) running states, never the
// transitions. The fold is exact because a pair (p, q) is only ever
// recorded by observer p at p's own clock, which does not go backwards:
// per pair, recording order is time order. A long heartbeat campaign
// records millions of transitions, so the list itself is kept only with
// Keep set — for the readers that need every instant (Events,
// DetectionTimes).
type History struct {
	// Keep retains every transition for Events and DetectionTimes.
	Keep bool

	mu     sync.Mutex
	events []Transition
	pairs  [][]pairFold // [p][q], grown to the largest ids recorded
}

// pairFold is one ordered pair's running QoS state (§4): transition
// counts, the closed suspicion time, and the suspicion still open.
type pairFold struct {
	nTS, nST  int
	suspTime  float64
	suspSince float64
	suspected bool
}

// add folds one transition; a repeated state is not a transition.
func (st *pairFold) add(suspected bool, at float64) {
	switch {
	case suspected && !st.suspected:
		st.nTS++
		st.suspected = true
		st.suspSince = at
	case !suspected && st.suspected:
		st.nST++
		st.suspected = false
		st.suspTime += at - st.suspSince
	}
}

// Reset discards all recorded transitions, retaining capacity, so one
// History can serve successive campaign replicas.
func (h *History) Reset() {
	h.mu.Lock()
	h.events = h.events[:0]
	for _, row := range h.pairs {
		clear(row)
	}
	h.mu.Unlock()
}

// Record adds a transition: it updates the pair's fold and, with Keep,
// appends the transition to the list.
func (h *History) Record(p, q neko.ProcessID, suspected bool, at float64) {
	h.mu.Lock()
	if h.Keep {
		h.events = append(h.events, Transition{P: p, Q: q, Suspected: suspected, At: at})
	}
	if p >= 1 && q >= 1 { // no other id is ever part of a pair EstimateQoS reads
		for int(p) >= len(h.pairs) {
			h.pairs = append(h.pairs, nil)
		}
		if row := h.pairs[p]; int(q) >= len(row) {
			h.pairs[p] = append(row, make([]pairFold, int(q)+1-len(row))...)
		}
		h.pairs[p][q].add(suspected, at)
	}
	h.mu.Unlock()
}

// Events returns a copy of the recorded transitions in recording order. It
// panics unless the history keeps them (Keep).
func (h *History) Events() []Transition {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.Keep {
		panic("fd: Events of a History that does not keep its transitions (set Keep)")
	}
	cp := make([]Transition, len(h.events))
	copy(cp, h.events)
	return cp
}

// fold returns pair (p, q)'s state; a pair never recorded is mistake-free.
// The caller holds h.mu.
func (h *History) fold(p, q neko.ProcessID) pairFold {
	if int(p) < len(h.pairs) && int(q) < len(h.pairs[p]) {
		return h.pairs[p][q]
	}
	return pairFold{}
}

// QoS holds the estimated Chen et al. metrics for a failure detector:
// averages over all ordered pairs (p, q), as in §4 of the paper.
type QoS struct {
	TMR float64 // mean mistake recurrence time [ms]
	TM  float64 // mean mistake duration [ms]
	// Pairs is the number of ordered pairs considered; MistakeFree counts
	// pairs that exhibited no mistakes during the experiment (their T_MR
	// is censored at 2·T_exp, see EstimateQoS).
	Pairs       int
	MistakeFree int
	Transitions int
}

func (q QoS) String() string {
	return fmt.Sprintf("T_MR=%.3g ms, T_M=%.3g ms (pairs=%d, mistake-free=%d)", q.TMR, q.TM, q.Pairs, q.MistakeFree)
}

// EstimateQoS computes the QoS metrics from a history spanning the
// experiment duration texp (ms), for n processes, using the paper's §4
// equations applied per ordered pair (p, q):
//
//	T_M/T_MR = T_S/T_exp   and   T_exp = (n_TS + n_ST)/2 · T_MR
//
// where T_S is the total suspicion time and n_TS, n_ST the transition
// counts. Pairs with no transitions get the censored value T_MR = 2·T_exp,
// T_M = 0 (the paper notes that precise values are unnecessary when T_MR
// is large, §5.4 footnote). Each pair's state is the fold History keeps
// as transitions are recorded; transitions naming an id outside 1..n
// count nowhere.
func EstimateQoS(h *History, texp float64, n int) QoS {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out QoS
	var sumTMR, sumTM float64
	// Fold pairs in (p, q) order: float summation order is part of the
	// result, bit for bit.
	for p := neko.ProcessID(1); int(p) <= n; p++ {
		for q := neko.ProcessID(1); int(q) <= n; q++ {
			if p == q {
				continue
			}
			st := h.fold(p, q)
			out.Pairs++
			if st.suspected {
				st.suspTime += texp - st.suspSince
			}
			transitions := st.nTS + st.nST
			out.Transitions += transitions
			if transitions == 0 {
				out.MistakeFree++
				sumTMR += 2 * texp
				continue
			}
			tmr := 2 * texp / float64(transitions)
			tm := tmr * st.suspTime / texp
			sumTMR += tmr
			sumTM += tm
		}
	}
	if out.Pairs > 0 {
		out.TMR = sumTMR / float64(out.Pairs)
		out.TM = sumTM / float64(out.Pairs)
	}
	return out
}

// DetectionTimes returns, for a process q crashed at time tc, the
// detection time T_D observed by each other process p, at index p: the
// instant of p's final trust→suspect transition regarding q, minus tc.
// Observers that never (permanently) suspect q get +Inf, and so do the
// unused entries 0 and q. A slice, so that a sum over it runs in id
// order and rounds the same way every time. The history must keep its
// transitions (Keep).
func DetectionTimes(h *History, q neko.ProcessID, tc float64, n int) []float64 {
	out := make([]float64, n+1)
	for p := range out {
		out[p] = math.Inf(1)
	}
	for _, e := range h.Events() {
		switch {
		case e.Q != q:
		case e.Suspected:
			out[e.P] = max(e.At-tc, 0)
		default:
			out[e.P] = math.Inf(1)
		}
	}
	return out
}
