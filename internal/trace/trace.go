// Package trace is the deterministic execution tracer of the simulation
// engines: a bounded ring buffer of typed event records that the DES
// kernel, the cluster emulator, the failure detector, and the consensus
// engine emit into when a Tracer is attached.
//
// The design constraints come from the campaign layer:
//
//   - Zero overhead when disabled. Every emit site guards with a single
//     nil check on its tracer field; no record is built, no randomness is
//     consumed, no allocation happens. A run with tracing off is
//     bit-identical — results and event counts — to a run on a build
//     without tracing.
//   - Zero allocation when enabled. The ring buffer is allocated once at
//     construction (New) and records are written in place by value, so
//     steady-state tracing allocates nothing; a traced replica stays
//     inside the same per-execution allocation budget as an untraced
//     one (pinned by the scenario alloc tests).
//   - Determinism (rule 6, see PERFORMANCE.md). Events are emitted in
//     DES execution order, which is a pure function of the replica seed;
//     the ring and the writers are schedule-independent, so trace output
//     is byte-identical at any worker count.
//
// A Tracer belongs to one replica (one cluster and its protocol stacks):
// the emulation is single-threaded inside a replica, so the Tracer needs
// no locking. Campaign workers keep one Tracer per worker next to their
// reusable replica assembly and Reset it between grid units; Snapshot
// copies the captured window out when a run finishes.
package trace

// Kind identifies the type of a traced event. The zero value is invalid;
// kinds are stable identifiers used in the JSONL output (see Name).
type Kind uint8

const (
	// DES kernel events.
	KindSchedule Kind = iota + 1 // event scheduled (X = due time)
	KindFire                     // event fired (T = its due time)

	// Cluster emulator (netsim) events.
	KindSend      // message enters the send path (P = sender, Q = receiver, S = payload kind name)
	KindDeliver   // message dispatched to the receiving stack (P = receiver, Q = sender, S = payload kind name)
	KindDrop      // message lost (B = drop reason, see Drop* constants, S = payload kind name)
	KindTimerArm  // timer armed on P's host (X = ideal due time)
	KindTimerStop // timer stopped on P's host
	KindTimerFire // timer callback ran on P's host
	KindCrash     // process P crashed
	KindRecover   // process P recovered (stack restarted)
	KindPartition // network partition installed
	KindHeal      // network partition removed
	KindLinkSet   // degradation rule installed on link P→Q (X = loss probability)
	KindLinkClear // degradation rule removed from link P→Q
	KindPause     // whole-host execution pause on P (X = duration)
	KindPhase     // workload phase transition (S = phase name)

	// Failure-detector (fd) events.
	KindHBEmit  // P broadcast heartbeat A
	KindHBRecv  // P received heartbeat A from Q
	KindSuspect // P started suspecting Q (X = time of last message from Q)
	KindTrust   // P stopped suspecting Q

	// Consensus (Chandra–Toueg) events.
	KindPropose  // P started instance A with initial value B
	KindRound    // P entered round B of instance A (Q = its coordinator)
	KindEstimate // P sent its round-B estimate of instance A to coordinator Q
	KindProposal // coordinator P broadcast the round-B proposal of instance A (X = value)
	KindAck      // P acknowledged round B of instance A to coordinator Q (X = 1 ok, 0 nack)
	KindDecide   // P decided instance A in round B (X = value)

	kindCount
)

// Drop reasons carried in Event.B of KindDrop records.
const (
	DropPartition  = 1 // frame crossed a partition boundary at the hub
	DropLinkLoss   = 2 // link degradation rule lost the frame
	DropFailedSend = 3 // fast-failed send to an already-crashed peer
	DropDown       = 4 // receiver was down at delivery time
)

var kindNames = [kindCount]string{
	KindSchedule:  "schedule",
	KindFire:      "fire",
	KindSend:      "send",
	KindDeliver:   "deliver",
	KindDrop:      "drop",
	KindTimerArm:  "timer-arm",
	KindTimerStop: "timer-stop",
	KindTimerFire: "timer-fire",
	KindCrash:     "crash",
	KindRecover:   "recover",
	KindPartition: "partition",
	KindHeal:      "heal",
	KindLinkSet:   "link-set",
	KindLinkClear: "link-clear",
	KindPause:     "pause",
	KindPhase:     "phase",
	KindHBEmit:    "hb-emit",
	KindHBRecv:    "hb-recv",
	KindSuspect:   "suspect",
	KindTrust:     "trust",
	KindPropose:   "propose",
	KindRound:     "round",
	KindEstimate:  "estimate",
	KindProposal:  "proposal",
	KindAck:       "ack",
	KindDecide:    "decide",
}

// Name returns the kind's stable lowercase name (used in trace output).
func (k Kind) Name() string {
	if k >= kindCount {
		return "unknown"
	}
	return kindNames[k]
}

// Event is one traced record. T is the simulated time in milliseconds —
// global cluster time for kernel and netsim events, the emitting host's
// local clock (global time plus its NTP-bounded offset) for fd and
// consensus events; ring order, not T, is the causal execution order. P
// is the process the event happened at, Q a peer process (0 when not
// applicable). A, B, X are kind-specific numeric payloads and S a
// kind-specific string: a message's payload kind name
// (neko.PayloadKind.String) or a phase name — see the Kind constants for
// each kind's field meanings. Strings stored here are static constants,
// so copying the header into the ring does not allocate.
type Event struct {
	T    float64
	P, Q int32
	Kind Kind
	A, B int64
	X    float64
	S    string
}

// Tracer captures events into a bounded ring: the most recent events, as
// many as its capacity (New's cap), are retained, older ones are
// overwritten (Dropped counts them). Not
// safe for concurrent use; a Tracer serves exactly one replica.
type Tracer struct {
	buf []Event
	n   uint64 // total events emitted since Reset
}

// DefaultCap is the ring capacity used when New is given cap <= 0:
// enough for several consensus executions' worth of kernel, network,
// detector, and protocol events (~64 bytes per record → ~4 MiB).
const DefaultCap = 1 << 16

// New creates a tracer with the given ring capacity (cap <= 0 means
// DefaultCap). The ring is the only allocation the tracer ever makes.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCap
	}
	return &Tracer{buf: make([]Event, capacity)}
}

// Emit appends one event to the ring, overwriting the oldest record once
// the ring is full. It never allocates.
func (t *Tracer) Emit(e Event) {
	t.buf[t.n%uint64(len(t.buf))] = e
	t.n++
}

// Len returns the number of events currently retained (at most the ring
// capacity).
func (t *Tracer) Len() int {
	if t.n < uint64(len(t.buf)) {
		return int(t.n)
	}
	return len(t.buf)
}

// Dropped returns how many events were overwritten by ring wrap-around.
func (t *Tracer) Dropped() uint64 {
	if t.n < uint64(len(t.buf)) {
		return 0
	}
	return t.n - uint64(len(t.buf))
}

// Reset discards all captured events, retaining the ring, so one tracer
// serves successive campaign replicas without reallocating. Stale record
// contents are not zeroed — they are unreachable through Snapshot — but
// string references from the previous run are cleared lazily as the ring
// refills; Reset itself is O(1).
func (t *Tracer) Reset() { t.n = 0 }

// Snapshot copies the retained window out in emission (oldest-first)
// order. The snapshot allocates; it is meant for end-of-run consumption,
// never for the hot path.
func (t *Tracer) Snapshot() *Trace {
	tr := &Trace{Dropped: t.Dropped(), Events: make([]Event, t.Len())}
	if t.n <= uint64(len(t.buf)) {
		copy(tr.Events, t.buf[:t.n])
		return tr
	}
	head := int(t.n % uint64(len(t.buf))) // oldest retained record
	n := copy(tr.Events, t.buf[head:])
	copy(tr.Events[n:], t.buf[:head])
	return tr
}

// Trace is an immutable snapshot of a tracer's retained window.
type Trace struct {
	// Events holds the retained records, oldest first.
	Events []Event
	// Dropped counts records overwritten by ring wrap-around before the
	// snapshot (the window starts after them).
	Dropped uint64
}

// Window returns the events with from <= T < to, preserving order. The
// returned slice aliases the snapshot.
func (tr *Trace) Window(from, to float64) []Event {
	lo, hi := 0, len(tr.Events)
	// The ring is in execution order and T is monotone for global-time
	// events but host-local times may jitter by the clock offset; scan
	// linearly rather than binary-searching so no event at a skewed local
	// clock is missed at the boundaries.
	for lo < hi && tr.Events[lo].T < from {
		lo++
	}
	for hi > lo && tr.Events[hi-1].T >= to {
		hi--
	}
	return tr.Events[lo:hi]
}
