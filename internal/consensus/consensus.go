// Package consensus implements the Chandra–Toueg consensus algorithm for
// the ◇S failure detector [11], the protocol analyzed by the paper (§2.1).
//
// The algorithm proceeds in asynchronous rounds with a rotating
// coordinator (p_i coordinates rounds k·n + i). In each round:
//
//	phase 1: every process sends its current estimate (value, timestamp)
//	         to the round's coordinator;
//	phase 2: the coordinator waits for a majority of estimates, adopts one
//	         with the largest timestamp and broadcasts it as its proposal;
//	phase 3: a participant that receives the proposal adopts it and
//	         replies with a positive acknowledgment; a participant whose
//	         failure detector suspects the coordinator while waiting
//	         replies with a negative acknowledgment instead; either way it
//	         proceeds to the next round;
//	phase 4: the coordinator waits for a majority of replies; if all are
//	         positive it broadcasts the decision (reliable broadcast),
//	         otherwise it moves to the next round.
//
// The implementation carries real data (proposed values and timestamps),
// unlike the SAN model which only captures control (§3). A majority of
// correct processes is required.
//
// Engine multiplexes sequential consensus instances over one process stack
// — the paper's measurement campaigns run thousands of executions
// back-to-back (§4) while the failure detector keeps running across them.
package consensus

import (
	"fmt"
	"slices"

	"ctsan/internal/neko"
	"ctsan/internal/trace"
)

// Estimate is the phase-1 message body (a view of the neko.Payload union
// fields the estimate variant owns). It is kept as a named struct because
// coordinators buffer estimates per round.
type Estimate struct {
	Cid   uint64 // consensus instance
	Round int
	Val   int64
	TS    int // round in which Val was last adopted; 0 initially
}

// Decision describes a local decision event.
type Decision struct {
	Cid   uint64
	Val   int64
	At    float64 // local clock (ms) when the decision was delivered
	Round int     // round in which the deciding proposal was issued
}

// Options tune protocol variants.
type Options struct {
	// MaxRounds aborts an instance after this many rounds (0 = unlimited).
	// Campaigns with very bad failure-detector QoS use it as a safety
	// valve; aborted instances are reported, never silently dropped.
	MaxRounds int
}

// Engine runs Chandra–Toueg consensus instances for one process. Create it
// with NewEngine (which registers the message handlers on the stack), then
// call Propose once per instance.
type Engine struct {
	ctx    neko.Context
	fd     neko.FailureDetector
	opts   Options
	maj    int
	active map[uint64]*Instance
	// lastIn short-circuits route's map lookup: sequential campaigns run
	// one instance at a time, so nearly every ct.* message targets the
	// same instance as the previous one. Forget and Reset clear it, so a
	// cached pointer is always an *active* instance and the cid match
	// cannot alias a recycled record.
	lastIn *Instance
	// pending buffers messages for instances not yet started locally
	// (start-time skew between hosts, §4). forgotten is one past the
	// highest id Forget has seen: ids run upward, so a message for a
	// lower, non-active id is a straggler of a finished instance and is
	// dropped rather than parked here until Reset.
	pending   map[uint64][]neko.Message
	forgotten uint64
	// instFree and bufFree recycle finished instances and drained pending
	// buffers: sequential campaigns run thousands of instances per
	// process, and rebuilding the per-instance maps for each was a top
	// allocation site (see PERFORMANCE.md).
	instFree []*Instance
	bufFree  [][]neko.Message
	// tr, if set, records protocol-level events (propose, round change,
	// estimate, proposal, ack, decide) into the replica's trace ring.
	// Reset detaches it; a traced campaign re-attaches after every reset.
	tr *trace.Tracer
}

// SetTracer attaches (nil detaches) a structured execution tracer.
func (e *Engine) SetTracer(tr *trace.Tracer) { e.tr = tr }

// NewEngine creates a consensus engine on the stack, querying the given
// failure detector. It registers handlers for the four ct.* payload kinds and
// subscribes to failure-detector changes.
func NewEngine(stack *neko.Stack, det neko.FailureDetector, opts Options) *Engine {
	ctx := stack.Context()
	e := &Engine{
		ctx:     ctx,
		fd:      det,
		opts:    opts,
		maj:     ctx.N()/2 + 1,
		active:  make(map[uint64]*Instance),
		pending: make(map[uint64][]neko.Message),
	}
	stack.Handle(neko.PayloadEstimate, e.route)
	stack.Handle(neko.PayloadPropose, e.route)
	stack.Handle(neko.PayloadAck, e.route)
	stack.Handle(neko.PayloadDecide, e.route)
	det.OnChange(e.onFDChange)
	return e
}

// Coordinator returns the coordinator of round r (1-based rounds):
// p_i coordinates rounds k·n + i (§2.1).
func (e *Engine) Coordinator(r int) neko.ProcessID {
	n := e.ctx.N()
	return neko.ProcessID((r-1)%n + 1)
}

// Propose starts consensus instance cid with initial value val. onDecide
// is invoked exactly once when the instance decides; onAbort (which may be
// nil) exactly once if the instance exceeds Options.MaxRounds instead. It
// returns the running instance.
func (e *Engine) Propose(cid uint64, val int64, onDecide func(Decision), onAbort func()) *Instance {
	if _, dup := e.active[cid]; dup {
		panic(fmt.Sprintf("consensus: instance %d already started at p%d", cid, e.ctx.ID()))
	}
	var in *Instance
	if n := len(e.instFree); n > 0 {
		in = e.instFree[n-1]
		e.instFree[n-1] = nil
		e.instFree = e.instFree[:n-1]
	} else {
		in = &Instance{e: e}
	}
	in.cid = cid
	in.est = val
	in.ts = 0
	in.onDecide = onDecide
	in.onAbort = onAbort
	gen := in.gen
	e.active[cid] = in
	if e.tr != nil {
		e.tr.Emit(trace.Event{T: e.ctx.Now(), P: int32(e.ctx.ID()), Kind: trace.KindPropose, A: int64(cid), B: val})
	}
	in.startRound(1)
	// Replay messages that arrived before the local start. A callback
	// fired from startRound or from a replayed message may Forget this
	// instance and start the next one on its recycled record (chained
	// sequential campaigns do); the generation check stops the replay
	// then — exactly when the pre-pooling code's messages started
	// hitting a decided dead instance as guarded no-ops.
	if buf, ok := e.pending[cid]; ok {
		delete(e.pending, cid)
		for _, m := range buf {
			if in.gen != gen {
				break
			}
			in.handle(&m)
		}
		e.bufFree = append(e.bufFree, buf[:0])
	}
	return in
}

// Forget discards a finished instance's state (sequential campaigns would
// otherwise accumulate per-instance buffers). The instance record and its
// buffers return to the engine's free lists for the next Propose. Callers
// number instances upward: messages that still arrive for cid, or for any
// lower id that is not active, are dropped from here on.
func (e *Engine) Forget(cid uint64) {
	e.forgotten = max(e.forgotten, cid+1)
	if in, ok := e.active[cid]; ok {
		delete(e.active, cid)
		if e.lastIn == in {
			e.lastIn = nil
		}
		in.recycle()
		e.instFree = append(e.instFree, in)
	}
	if buf, ok := e.pending[cid]; ok {
		delete(e.pending, cid)
		e.bufFree = append(e.bufFree, buf[:0])
	}
}

// Reset discards every active instance and pending buffer (retaining the
// recycled records) so one engine can serve successive campaign replicas
// on a reused cluster. The executor must have been reset first; Reset
// does not interact with timers or in-flight messages.
func (e *Engine) Reset() {
	e.lastIn = nil
	e.forgotten = 0
	for cid, in := range e.active {
		delete(e.active, cid)
		in.recycle()
		e.instFree = append(e.instFree, in)
	}
	for cid, buf := range e.pending {
		delete(e.pending, cid)
		e.bufFree = append(e.bufFree, buf[:0])
	}
	e.tr = nil
}

// route dispatches a ct.* message to its instance, buffers it if the
// instance has not started locally yet, and drops it if the instance is
// already forgotten.
func (e *Engine) route(m *neko.Message) {
	// Every ct.* payload variant carries the instance id in the same union
	// field — the pre-union type switch devirtualized away.
	cid := m.Payload.Cid
	if in := e.lastIn; in != nil && in.cid == cid {
		in.handle(m)
		return
	}
	if in, ok := e.active[cid]; ok {
		e.lastIn = in
		in.handle(m)
		return
	}
	if cid < e.forgotten {
		return
	}
	// Bound the pending buffer: a malformed flood must not exhaust memory.
	// The bound covers a full instance's worth of traffic (pipelined
	// sequential instances can run a whole instance ahead of a process).
	buf, ok := e.pending[cid]
	if !ok {
		if n := len(e.bufFree); n > 0 {
			buf = e.bufFree[n-1]
			e.bufFree[n-1] = nil
			e.bufFree = e.bufFree[:n-1]
		}
	}
	if len(buf) < 8*e.ctx.N() {
		buf = append(buf, *m)
	}
	e.pending[cid] = buf
}

// onFDChange forwards a new suspicion to the active instances in id
// order, the order of what they send (rule 2); one forgotten by an
// earlier one's callback is skipped.
func (e *Engine) onFDChange(q neko.ProcessID, suspected bool) {
	if !suspected {
		return
	}
	var buf [8]uint64 // on the stack: a suspicion is not worth an allocation
	cids := buf[:0]
	for cid := range e.active {
		cids = append(cids, cid)
	}
	slices.Sort(cids)
	for _, cid := range cids {
		if in := e.active[cid]; in != nil {
			in.onSuspicion(q)
		}
	}
}

// ackTally counts phase-4 replies for one round at its coordinator.
type ackTally struct {
	oks, nacks int
	evaluated  bool
}

// Instance is one execution of consensus at one process. Records are
// recycled through the engine's free list; gen counts incarnations so
// stale references (a pending-message replay interrupted by a Forget from
// inside a callback) can detect the reuse.
type Instance struct {
	e        *Engine
	cid      uint64
	gen      uint64
	round    int
	est      int64
	ts       int
	decided  bool
	decision Decision
	aborted  bool
	onDecide func(Decision)
	onAbort  func()

	waitingProposal bool // participant, phase 3 of e.round
	// Coordinator-side buffers, indexed by round (1-based; slot 0 unused):
	// estimates received, replies tallied, whether the proposal was already
	// issued, and buffered future-round proposals (propSet marks presence).
	// Rounds are small dense integers, so flat slices replace the
	// round-keyed maps this used to carry: no hashing on the message hot
	// path, and recycle rewinds in O(rounds touched) instead of clearing
	// four maps. The slices (and each round's estimate buffer and tally
	// record) are retained across incarnations, so steady-state instances
	// allocate nothing.
	estBuf   [][]Estimate
	ackBuf   []*ackTally
	proposed []bool
	propBuf  []int64
	propSet  []bool
	// hiRound is the highest round index touched since the last recycle.
	hiRound int
}

// touch grows the per-round buffers to cover round r and records it for
// recycle. Callers must have bounds-checked r (see boundedRound).
func (in *Instance) touch(r int) {
	if r > in.hiRound {
		in.hiRound = r
	}
	for len(in.estBuf) <= r {
		in.estBuf = append(in.estBuf, nil)
		in.ackBuf = append(in.ackBuf, nil)
		in.proposed = append(in.proposed, false)
		in.propBuf = append(in.propBuf, 0)
		in.propSet = append(in.propSet, false)
	}
}

// boundedRound reports whether r is a plausible round number. Wire
// messages carry attacker-controlled rounds; rejecting implausible ones
// bounds the round-indexed buffers the way the maps they replaced were
// bounded by their key count. Rounds beyond MaxRounds can never influence
// an instance — it aborts before reaching them — so dropping their
// messages is behavior-preserving. With unlimited rounds a generous
// absolute cap (far past anything a real run reaches; round recursion is
// bounded by successive coordinator suspicions) guards the buffers.
func (in *Instance) boundedRound(r int) bool {
	if r < 1 {
		return false
	}
	if mr := in.e.opts.MaxRounds; mr > 0 {
		return r <= mr
	}
	return r <= 1<<16
}

// recycle rewinds the instance to a blank state, rewinding the per-round
// buffers in place (retaining their storage) and releasing callback
// references.
func (in *Instance) recycle() {
	in.gen++
	for r := 1; r <= in.hiRound; r++ {
		in.estBuf[r] = in.estBuf[r][:0]
		if t := in.ackBuf[r]; t != nil {
			*t = ackTally{}
		}
		in.proposed[r] = false
		in.propBuf[r] = 0
		in.propSet[r] = false
	}
	in.hiRound = 0
	in.cid = 0
	in.round = 0
	in.est = 0
	in.ts = 0
	in.decided = false
	in.decision = Decision{}
	in.aborted = false
	in.onDecide = nil
	in.onAbort = nil
	in.waitingProposal = false
}

// startRound enters round r: phase 1 for participants, estimate collection
// for the coordinator. May recurse (bounded by N) through immediate
// suspicions of successive coordinators.
func (in *Instance) startRound(r int) {
	if in.decided || in.aborted {
		return
	}
	if in.e.opts.MaxRounds > 0 && r > in.e.opts.MaxRounds {
		in.aborted = true
		if in.onAbort != nil {
			in.onAbort()
		}
		return
	}
	in.round = r
	in.waitingProposal = false
	c := in.e.Coordinator(r)
	if tr := in.e.tr; tr != nil {
		tr.Emit(trace.Event{T: in.e.ctx.Now(), P: int32(in.e.ctx.ID()), Q: int32(c), Kind: trace.KindRound, A: int64(in.cid), B: int64(r)})
	}
	if c == in.e.ctx.ID() {
		// Coordinator: its own estimate counts toward the majority.
		in.addEstimate(Estimate{Cid: in.cid, Round: r, Val: in.est, TS: in.ts})
		return
	}
	// Participant, phase 1: send the estimate to the coordinator.
	if tr := in.e.tr; tr != nil {
		tr.Emit(trace.Event{T: in.e.ctx.Now(), P: int32(in.e.ctx.ID()), Q: int32(c), Kind: trace.KindEstimate, A: int64(in.cid), B: int64(r)})
	}
	in.e.ctx.Send(neko.Message{To: c, Payload: neko.Payload{Kind: neko.PayloadEstimate, Cid: in.cid, Round: r, Val: in.est, TS: in.ts}})
	// Phase 3: wait for the proposal unless the coordinator is already
	// suspected (§2.4 class 2: a crashed coordinator is suspected from the
	// beginning) or its proposal overtook our round start.
	if r < len(in.propSet) && in.propSet[r] {
		v := in.propBuf[r]
		in.propSet[r] = false
		in.acceptProposal(r, v, c)
		return
	}
	if in.e.fd.Suspects(c) {
		in.rejectCoordinator(r, c)
		return
	}
	in.waitingProposal = true
}

// handle processes one inbound message for this instance.
func (in *Instance) handle(m *neko.Message) {
	p := m.Payload
	switch p.Kind {
	case neko.PayloadEstimate:
		in.handleEstimate(Estimate{Cid: p.Cid, Round: p.Round, Val: p.Val, TS: p.TS})
	case neko.PayloadPropose:
		in.handlePropose(p.Round, p.Val, m.From)
	case neko.PayloadAck:
		in.handleAck(p.Round, p.OK)
	case neko.PayloadDecide:
		in.deliverDecision(p.Val, 0)
	}
}

// handleEstimate buffers a phase-1 estimate and, as coordinator of that
// round, tries to issue the proposal.
func (in *Instance) handleEstimate(p Estimate) {
	if in.decided || in.aborted || !in.boundedRound(p.Round) || in.e.Coordinator(p.Round) != in.e.ctx.ID() {
		return
	}
	in.addEstimate(p)
}

func (in *Instance) addEstimate(p Estimate) {
	if in.proposedIn(p.Round) {
		return // proposal already issued; late estimates are irrelevant
	}
	in.touch(p.Round)
	in.estBuf[p.Round] = append(in.estBuf[p.Round], p)
	in.maybePropose(p.Round)
}

func (in *Instance) proposedIn(r int) bool {
	return r < len(in.proposed) && in.proposed[r]
}

// maybePropose runs phase 2 at the coordinator: with a majority of
// estimates for the coordinator's *current* round, adopt the one with the
// largest timestamp and broadcast it.
func (in *Instance) maybePropose(r int) {
	if in.round != r || in.proposedIn(r) || len(in.estBuf[r]) < in.e.maj {
		return
	}
	best := in.estBuf[r][0]
	for _, e := range in.estBuf[r][1:] {
		if e.TS > best.TS {
			best = e
		}
	}
	in.proposed[r] = true
	in.est = best.Val
	in.ts = r
	// Rewind the round's estimate buffer in place; proposedIn gates any
	// late estimate from refilling it.
	in.estBuf[r] = in.estBuf[r][:0]
	// The coordinator's own reply is an implicit positive acknowledgment.
	in.tally(r).oks++
	if tr := in.e.tr; tr != nil {
		tr.Emit(trace.Event{T: in.e.ctx.Now(), P: int32(in.e.ctx.ID()), Kind: trace.KindProposal, A: int64(in.cid), B: int64(r), X: float64(best.Val)})
	}
	neko.Broadcast(in.e.ctx, neko.Message{Payload: neko.Payload{Kind: neko.PayloadPropose, Cid: in.cid, Round: r, Val: best.Val}})
	in.maybeConclude(r)
}

// handlePropose runs phase 3 at a participant.
func (in *Instance) handlePropose(round int, val int64, from neko.ProcessID) {
	if in.decided || in.aborted {
		return
	}
	switch {
	case round == in.round && in.waitingProposal:
		in.acceptProposal(round, val, from)
	case round > in.round && in.boundedRound(round):
		// The coordinator of a future round gathered a majority without
		// us; handle the proposal when we reach that round.
		in.touch(round)
		in.propBuf[round] = val
		in.propSet[round] = true
	}
	// round < in.round: stale — we already nacked and moved on.
}

// acceptProposal adopts the coordinator's value, acks, and proceeds to the
// next round (the CT algorithm does not block waiting for the decision —
// it arrives via the decide broadcast).
func (in *Instance) acceptProposal(r int, val int64, c neko.ProcessID) {
	in.waitingProposal = false
	in.est = val
	in.ts = r
	if tr := in.e.tr; tr != nil {
		tr.Emit(trace.Event{T: in.e.ctx.Now(), P: int32(in.e.ctx.ID()), Q: int32(c), Kind: trace.KindAck, A: int64(in.cid), B: int64(r), X: 1})
	}
	in.e.ctx.Send(neko.Message{To: c, Payload: neko.Payload{Kind: neko.PayloadAck, Cid: in.cid, Round: r, OK: true}})
	in.startRound(r + 1)
}

// rejectCoordinator sends a negative acknowledgment for round r and moves
// on. The nack is sent even to a coordinator suspected from the start —
// the real implementation cannot know the suspicion is justified, and the
// message costs real resources (Table 1 depends on this).
func (in *Instance) rejectCoordinator(r int, c neko.ProcessID) {
	in.waitingProposal = false
	if tr := in.e.tr; tr != nil {
		tr.Emit(trace.Event{T: in.e.ctx.Now(), P: int32(in.e.ctx.ID()), Q: int32(c), Kind: trace.KindAck, A: int64(in.cid), B: int64(r), X: 0})
	}
	in.e.ctx.Send(neko.Message{To: c, Payload: neko.Payload{Kind: neko.PayloadAck, Cid: in.cid, Round: r, OK: false}})
	in.startRound(r + 1)
}

// onSuspicion implements the phase-3 escape: a participant waiting for the
// proposal of a now-suspected coordinator nacks and advances (§2.1).
func (in *Instance) onSuspicion(q neko.ProcessID) {
	if in.decided || in.aborted || !in.waitingProposal {
		return
	}
	if q != in.e.Coordinator(in.round) {
		return
	}
	in.rejectCoordinator(in.round, q)
}

// handleAck runs phase 4 at the coordinator of the acked round.
func (in *Instance) handleAck(round int, ok bool) {
	if in.decided || in.aborted || !in.boundedRound(round) || in.e.Coordinator(round) != in.e.ctx.ID() {
		return
	}
	t := in.tally(round)
	if t.evaluated {
		return
	}
	if ok {
		t.oks++
	} else {
		t.nacks++
	}
	in.maybeConclude(round)
}

func (in *Instance) tally(r int) *ackTally {
	in.touch(r)
	t := in.ackBuf[r]
	if t == nil {
		t = &ackTally{}
		in.ackBuf[r] = t
	}
	return t
}

// maybeConclude evaluates phase 4 once a majority of replies is in: all
// positive → decide and broadcast; any negative → next round.
func (in *Instance) maybeConclude(r int) {
	t := in.tally(r)
	if t.evaluated || t.oks+t.nacks < in.e.maj {
		return
	}
	t.evaluated = true
	if t.nacks == 0 {
		neko.Broadcast(in.e.ctx, neko.Message{Payload: neko.Payload{Kind: neko.PayloadDecide, Cid: in.cid, Val: in.est}})
		in.deliverDecision(in.est, r)
		return
	}
	// At least one negative acknowledgment: the round failed. The
	// coordinator is still in round r (it never waits for its own
	// proposal), so advance from there.
	if in.round == r {
		in.startRound(r + 1)
	}
}

// deliverDecision finalizes the instance. Round 0 — a decision learned
// from the decide broadcast rather than concluded locally — means "the
// local current round" (the wire Decide payload stays minimal — the
// paper's messages are ~100 bytes, §2.5).
func (in *Instance) deliverDecision(val int64, round int) {
	if in.decided || in.aborted {
		return
	}
	in.decided = true
	if round == 0 {
		round = in.round
	}
	in.decision = Decision{Cid: in.cid, Val: val, At: in.e.ctx.Now(), Round: round}
	if tr := in.e.tr; tr != nil {
		tr.Emit(trace.Event{T: in.e.ctx.Now(), P: int32(in.e.ctx.ID()), Kind: trace.KindDecide, A: int64(in.cid), B: int64(round), X: float64(val)})
	}
	if in.onDecide != nil {
		in.onDecide(in.decision)
	}
}
