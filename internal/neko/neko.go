// Package neko is a small protocol-development framework modeled on the
// Neko framework of Urbán, Défago & Schiper [18], which the paper used to
// run the Chandra–Toueg consensus implementation: the same algorithm code
// executes unmodified either inside a discrete-event cluster emulator
// (internal/netsim, virtual time) or on a real-time transport
// (examples/internal/realnet, in-process channels or TCP).
//
// A Process is a Stack of protocol layers attached to an execution Context.
// Protocols communicate through messages and timers; a message is plain
// data identified by its payload kind alone, which selects both its
// handler and its name on the wire (PayloadKind.String). Time is a
// float64 number of milliseconds — the unit used throughout the paper —
// rather than time.Duration, because virtual-time executors schedule on a
// continuous simulated clock; real-time executors convert at the boundary.
package neko

import "fmt"

// ProcessID identifies a process, 1-based as in the paper (p_1 … p_n).
type ProcessID int

// PayloadKind discriminates the Payload union and is a message's only
// identity: stacks dispatch on it, and its String is the message's name in
// traces and logs. The protocols crossing the framework form a small
// closed set (heartbeats, the four Chandra–Toueg message bodies, delay
// probes), so payloads travel as one flat value instead of a heap-boxed
// `any` — steady-state message traffic then allocates nothing, and
// executors dispatch through an array indexed by kind (see Stack.Handle).
type PayloadKind uint8

// Payload kinds. PayloadNone marks content-free messages, which only tests
// send: they reach a stack's taps and are then dropped, since no handler
// can be registered for them.
const (
	PayloadNone PayloadKind = iota
	PayloadHB
	PayloadEstimate
	PayloadPropose
	PayloadAck
	PayloadDecide
	PayloadProbe

	numPayloadKinds
)

// kindNames are the wire names of the payload kinds, as traces print them.
var kindNames = [numPayloadKinds]string{
	PayloadHB:       "fd.hb",
	PayloadEstimate: "ct.estimate",
	PayloadPropose:  "ct.propose",
	PayloadAck:      "ct.ack",
	PayloadDecide:   "ct.decide",
	PayloadProbe:    "probe",
}

// String returns the kind's wire name ("" for PayloadNone).
func (k PayloadKind) String() string {
	if k >= numPayloadKinds {
		return fmt.Sprintf("PayloadKind(%d)", uint8(k))
	}
	return kindNames[k]
}

// Payload is the flat union of every protocol message body. Kind selects
// the variant; each variant reads the fields it owns and ignores the
// rest:
//
//	PayloadHB:       Seq
//	PayloadEstimate: Cid, Round, Val, TS
//	PayloadPropose:  Cid, Round, Val
//	PayloadAck:      Cid, Round, OK
//	PayloadDecide:   Cid, Val
//	PayloadProbe:    Seq
//
// The struct is plain comparable data: it crosses gob transports as-is
// (no Register calls needed) and copies with the Message it rides in.
type Payload struct {
	Kind  PayloadKind
	OK    bool
	Cid   uint64 // consensus instance
	Seq   uint64 // heartbeat / probe sequence number
	Val   int64
	Round int
	TS    int
}

// Message is a protocol message: 64 bytes of plain data on 64-bit
// platforms, with no field that can hold a pointer. Copying it copies the
// payload, and a pooled record that still holds a stale message pins no
// heap object, so executors recycle message records without scrubbing
// them.
type Message struct {
	From, To ProcessID
	Payload  Payload
}

func (m Message) String() string {
	return fmt.Sprintf("%s p%d→p%d", m.Payload.Kind, m.From, m.To)
}

// TimerHandle identifies a timer so it can be cancelled or re-armed.
// Handles are opaque to protocols and valid until Stop: Stop must be
// called at most once, and a handle must not be used after Stop returns —
// executors may recycle timer records (the virtual-time emulator pools
// them).
type TimerHandle interface {
	// Stop cancels the timer if it has not fired.
	Stop()
	// Reset re-arms the timer to run its callback d ms from now, pending
	// or fired: what Stop followed by SetTimer(d, callback) does, except
	// that the handle stays valid. A protocol that re-arms one timer on
	// every message (the heartbeat detector) calls Reset, so an executor
	// can defer a re-armed timer's work until it is due (the emulator
	// draws a wake-up's scheduler lateness only then).
	Reset(d float64)
}

// Context is the execution environment a protocol sees: identity, clock,
// message transmission and timers. Implementations: the virtual-time
// cluster emulator and the real-time runtime. All Context methods must be
// called from protocol code running inside the executor (message handlers,
// timer callbacks, Start), never from foreign goroutines.
type Context interface {
	// ID returns this process's identifier (1..N).
	ID() ProcessID
	// N returns the number of processes in the system.
	N() int
	// Now returns the local clock in milliseconds. Local clocks may be
	// offset from one another (the paper synchronized them within ±50 µs).
	Now() float64
	// Send transmits m to m.To. The executor fills m.From. Sending to self
	// is not supported; protocols short-circuit local delivery.
	Send(m Message)
	// SetTimer schedules fn after d milliseconds of local time. The
	// callback runs in the executor like a message handler. Executors may
	// add scheduler latency (the emulator models the Linux jiffy quantum).
	SetTimer(d float64, fn func()) TimerHandle
}

// Protocol is one layer of a process stack. Start is invoked once when the
// executor begins; message handlers are registered against the Stack.
type Protocol interface {
	// Start is called once, after all layers are constructed, when the
	// process begins executing.
	Start()
}

// Stack dispatches inbound messages to protocol layers. Layers register a
// handler for each payload kind they own, and taps that observe every
// inbound message (the heartbeat failure detector taps all traffic because
// "the reception of any message from q resets the timer", §2.2).
type Stack struct {
	ctx    Context
	layers []Protocol
	// kinds holds one handler per payload kind. Handlers and taps receive
	// the message by pointer: the hot dispatch chain (executor -> tap ->
	// handler -> protocol routing) would otherwise copy the Message at
	// every hop. The pointee is only valid for the duration of the call.
	kinds [numPayloadKinds]func(*Message)
	taps  []func(*Message)
}

// NewStack creates an empty stack bound to an execution context.
func NewStack(ctx Context) *Stack { return &Stack{ctx: ctx} }

// Context returns the execution context of the stack.
func (s *Stack) Context() Context { return s.ctx }

// AddLayer appends a protocol layer. Layers are started in registration
// order (bottom first).
func (s *Stack) AddLayer(p Protocol) { s.layers = append(s.layers, p) }

// Handle registers the handler for messages of one payload kind. It
// panics on PayloadNone, on a kind outside the closed set and on a
// duplicate registration: message ownership must be unambiguous.
func (s *Stack) Handle(k PayloadKind, h func(*Message)) {
	if k == PayloadNone || k >= numPayloadKinds {
		panic(fmt.Sprintf("neko: Handle with invalid payload kind %d", k))
	}
	if s.kinds[k] != nil {
		panic(fmt.Sprintf("neko: duplicate handler for payload kind %s", k))
	}
	s.kinds[k] = h
}

// Tap registers an observer invoked for every inbound message, before the
// kind handler.
func (s *Stack) Tap(fn func(*Message)) { s.taps = append(s.taps, fn) }

// Start starts all layers in registration order.
func (s *Stack) Start() {
	for _, l := range s.layers {
		l.Start()
	}
}

// Dispatch routes an inbound message: taps first, then the handler of its
// payload kind. Messages without a handler are dropped silently (a layer
// may have shut down, or the message carries no kind); so is a kind
// outside the closed set, which only a malformed frame from a real-time
// transport can carry. The message is passed by pointer; handlers must not
// retain it past the call.
func (s *Stack) Dispatch(m *Message) {
	for _, tap := range s.taps {
		tap(m)
	}
	if k := m.Payload.Kind; k < numPayloadKinds {
		if h := s.kinds[k]; h != nil {
			h(m)
		}
	}
}

// Broadcast sends m to every process except the sender, as n−1 unicast
// messages in ascending process-ID order — exactly what the measured
// implementation does (§5.1: "in the implementation they are n−1 unicast
// messages"). The SAN model, by contrast, models a broadcast as a single
// message; that asymmetry explains the n = 3 crash anomaly in Table 1.
func Broadcast(ctx Context, m Message) {
	for id := ProcessID(1); id <= ProcessID(ctx.N()); id++ {
		if id == ctx.ID() {
			continue
		}
		mm := m
		mm.To = id
		ctx.Send(mm)
	}
}

// FailureDetector is the query interface of a local failure-detector
// module (§2.1): a list of processes currently suspected to have crashed.
type FailureDetector interface {
	// Suspects reports whether q is currently suspected.
	Suspects(q ProcessID) bool
	// OnChange registers a callback fired whenever the suspicion state of
	// some monitored process changes. Consensus uses it to abort waiting
	// for a suspected coordinator.
	OnChange(fn func(q ProcessID, suspected bool))
}
