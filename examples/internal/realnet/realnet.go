// Package realnet executes neko protocol stacks in real time, the way the
// paper's Neko framework ran the same algorithm code both in simulation
// and on the cluster [18]. Two transports are provided:
//
//   - an in-process transport (Go channels), convenient for examples and
//     fast integration tests;
//   - a TCP mesh over the loopback interface, mirroring the paper's setup:
//     "All messages were transmitted using TCP/IP; connections between
//     each pair of machines were established at the beginning of the
//     test" (§2.5). Each neko.Message is gob-encoded as it is: it is plain
//     data, so no gob.Register calls are needed.
//
// Each process runs a single event-loop goroutine; message handlers and
// timer callbacks execute serialized on that loop, matching the execution
// model protocols see under the virtual-time emulator.
package realnet

import (
	"fmt"
	"sync"
	"time"

	"ctsan/internal/neko"
)

// Transport delivers messages between processes. Implementations must be
// safe for concurrent Send calls.
type Transport interface {
	// Send transmits m to process m.To (From is already filled in).
	Send(m neko.Message) error
	// Close releases transport resources.
	Close() error
}

// Proc is one real-time process: a neko.Context plus its event loop.
type Proc struct {
	id    neko.ProcessID
	n     int
	start time.Time
	tr    Transport
	loop  chan func()
	stack *neko.Stack
	done  chan struct{}
	stop  sync.Once
	errFn func(error)
}

var _ neko.Context = (*Proc)(nil)

// NewProc creates a process with the given identity. Attach a stack built
// against it (Stack()), then call Run. errFn (may be nil) receives
// transport errors.
func NewProc(id neko.ProcessID, n int, tr Transport, errFn func(error)) *Proc {
	if errFn == nil {
		errFn = func(error) {}
	}
	return &Proc{
		id:    id,
		n:     n,
		start: time.Now(),
		tr:    tr,
		loop:  make(chan func(), 1024),
		done:  make(chan struct{}),
		errFn: errFn,
	}
}

// ID implements neko.Context.
func (p *Proc) ID() neko.ProcessID { return p.id }

// N implements neko.Context.
func (p *Proc) N() int { return p.n }

// Now implements neko.Context: milliseconds of local clock since start.
func (p *Proc) Now() float64 { return float64(time.Since(p.start)) / float64(time.Millisecond) }

// Send implements neko.Context.
func (p *Proc) Send(m neko.Message) {
	m.From = p.id
	if err := p.tr.Send(m); err != nil {
		p.errFn(fmt.Errorf("realnet: p%d send %s: %w", p.id, m.Payload.Kind, err))
	}
}

// realTimer implements neko.TimerHandle.
type realTimer struct{ t *time.Timer }

// Stop implements neko.TimerHandle.
func (rt *realTimer) Stop() { rt.t.Stop() }

// Reset implements neko.TimerHandle: the timer posts its callback to the
// event loop d ms from now, whether or not it has fired. As with Stop, a
// callback already posted still runs.
func (rt *realTimer) Reset(d float64) { rt.t.Reset(duration(d)) }

// SetTimer implements neko.Context: fn runs on the process event loop.
func (p *Proc) SetTimer(d float64, fn func()) neko.TimerHandle {
	t := time.AfterFunc(duration(d), func() {
		p.post(fn)
	})
	return &realTimer{t: t}
}

// duration converts milliseconds to a time.Duration.
func duration(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }

// post enqueues fn on the event loop; drops it if the process stopped.
func (p *Proc) post(fn func()) {
	select {
	case <-p.done:
	case p.loop <- fn:
	}
}

// Deliver injects an inbound message (called by transports).
func (p *Proc) Deliver(m neko.Message) {
	p.post(func() {
		if p.stack != nil {
			p.stack.Dispatch(&m)
		}
	})
}

// Attach binds the protocol stack (must be built against this Proc).
func (p *Proc) Attach(s *neko.Stack) { p.stack = s }

// Run starts the stack and processes events until Stop is called.
// It blocks; run it in a goroutine.
func (p *Proc) Run() {
	if p.stack != nil {
		p.post(func() { p.stack.Start() })
	}
	for {
		select {
		case <-p.done:
			return
		case fn := <-p.loop:
			fn()
		}
	}
}

// Invoke runs fn on the event loop (e.g. Propose on a consensus engine).
func (p *Proc) Invoke(fn func()) { p.post(fn) }

// Stop terminates the event loop.
func (p *Proc) Stop() { p.stop.Do(func() { close(p.done) }) }
