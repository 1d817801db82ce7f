package netsim

import (
	"reflect"
	"testing"

	"ctsan/internal/dist"
	"ctsan/internal/neko"
	"ctsan/internal/rng"
	"ctsan/internal/trace"
)

// How a timer schedule re-arms a timer that already has a handle.
type rearmWay int

const (
	viaReset   rearmWay = iota // Reset on the handle
	viaStopSet                 // Stop, then SetTimer
	viaEager                   // Stop, then eagerSetTimer: the reference
)

// eagerSetTimer is SetTimer as it was before timers re-armed lazily: the
// lateness is drawn from schedRand at the arm and the wake-up filed at
// once at its due time. It is the reference the lazy path must match.
func (h *host) eagerSetTimer(d float64, fn func()) neko.TimerHandle {
	if d < 0 {
		d = 0
	}
	t := h.c.timers.get()
	t.h, t.epoch, t.stopped, t.released, t.fn = h, h.epoch, false, false, fn
	ideal := h.c.sim.Now() + d
	t.handle = h.c.sim.At(ideal+h.wakeLateness(h.schedRand, ideal), t.fireFn)
	return t
}

// A timerOp acts on timer slot (on host slot%3 + 1) at global time at.
type timerOp struct {
	at   float64
	kind byte // 'a' arm, 's' stop, 'p' pause the host, 'c' crash it, 'r' recover it
	slot int
	d    float64 // arm: the delay; pause: the duration
}

const timerSlots = 6

// timerSchedule draws a random schedule: arms (an eighth of them with
// d = 0) and stops of six timers on three hosts, pauses long enough to
// hold a fired wake-up on the CPU queue while the timer is re-armed, and
// crashes and recoveries that change the hosts' epochs. Instants repeat.
func timerSchedule(seed uint64) []timerOp {
	r := rng.New(seed)
	var ops []timerOp
	at := 0.0
	for i := 0; i < 400; i++ {
		if r.Float64() < 0.7 {
			at += r.Exp(0.8)
		}
		op := timerOp{at: at, slot: int(r.Float64() * timerSlots)}
		switch u := r.Float64(); {
		case u < 0.6:
			op.kind, op.d = 'a', r.Uniform(0, 14)
			if r.Float64() < 0.125 {
				op.d = 0
			}
		case u < 0.8:
			op.kind = 's'
		case u < 0.9:
			op.kind, op.d = 'p', r.Uniform(1, 20)
		case u < 0.95:
			op.kind = 'c'
		default:
			op.kind = 'r'
		}
		ops = append(ops, op)
	}
	return ops
}

// timerRun is what one side of the differential saw.
type timerRun struct {
	fires    []float64 // slot, instant, slot, instant, ...
	steps    uint64
	wakeups  uint64
	sched    []rng.Stream
	trace    []trace.Event
	coverage map[string]int
}

// runTimers plays ops on a fresh cluster, re-arming the way how. Slot 0's
// callback re-arms itself 7 ms ahead, the way heartbeat emission does.
func runTimers(t *testing.T, params Params, seed uint64, ops []timerOp, how rearmWay, traced bool) timerRun {
	t.Helper()
	c, err := New(params, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	var tr *trace.Tracer
	if traced {
		tr = trace.New(1 << 16)
		c.SetTracer(tr)
	}
	for id := neko.ProcessID(1); int(id) <= params.N; id++ {
		c.Attach(id, neko.NewStack(c.Context(id)))
	}
	run := timerRun{coverage: map[string]int{}}
	handles := make([]neko.TimerHandle, timerSlots)
	host := func(slot int) *host { return c.hosts[slot%3] }
	var cbs [timerSlots]func()
	arm := func(slot int, d float64) {
		h := host(slot)
		old := handles[slot]
		if old == nil {
			if how == viaEager {
				handles[slot] = h.eagerSetTimer(d, cbs[slot])
			} else {
				handles[slot] = h.SetTimer(d, cbs[slot])
			}
			return
		}
		if st := old.(*simTimer); how == viaReset {
			for _, fc := range c.fires.all {
				if fc.t == st && fc.gen == st.gen {
					run.coverage["reset with its wake-up waiting for the CPU"]++
				}
			}
			if st.epoch != h.epoch {
				run.coverage["reset of a timer armed before a crash"]++
			}
			if d == 0 {
				run.coverage["reset with d = 0"]++
			}
			if st.handle.Valid() {
				run.coverage["reset of a pending timer"]++
			}
		}
		switch how {
		case viaReset:
			old.Reset(d)
		case viaStopSet:
			old.Stop()
			handles[slot] = h.SetTimer(d, cbs[slot])
		case viaEager:
			old.Stop()
			handles[slot] = h.eagerSetTimer(d, cbs[slot])
		}
	}
	for slot := range cbs {
		cbs[slot] = func() {
			run.fires = append(run.fires, float64(slot), c.Now())
			if slot == 0 {
				arm(0, 7)
			}
		}
	}
	c.Start()
	for _, op := range ops {
		switch op := op; op.kind {
		case 'a':
			c.AtGlobal(op.at, func() { arm(op.slot, op.d) })
		case 's':
			c.AtGlobal(op.at, func() {
				if handles[op.slot] != nil {
					handles[op.slot].Stop()
					handles[op.slot] = nil
				}
			})
		case 'p':
			c.PauseAt(host(op.slot).id, op.at, op.d)
		case 'c':
			c.CrashAt(host(op.slot).id, op.at)
		case 'r':
			c.RecoverAt(host(op.slot).id, op.at)
		}
	}
	c.RunUntil(ops[len(ops)-1].at + 100)
	run.steps = c.Steps()
	run.wakeups = c.TimerCounts().Wakeups
	for _, h := range c.hosts {
		run.sched = append(run.sched, *h.schedRand)
	}
	if tr != nil {
		run.trace = tr.Snapshot().Events
	}
	return run
}

// TestTimerResetMatchesEager runs random timer schedules three ways —
// Reset, Stop then SetTimer, and Stop then the eager arm the lazy path
// replaced — on the default scheduler and on one whose lateness draws
// take every Skip path (a mixture tail, a zero-mean exponential, a
// constant). All three must fire the same timers at the same instants
// after the same number of events, and leave every host's schedRand in
// the same state; traced, Reset and Stop plus SetTimer must write the
// same trace.
func TestTimerResetMatchesEager(t *testing.T) {
	mixed := DefaultParams(3)
	mixed.GridProb = 0.9
	mixed.WakeTailProb = 0.5
	mixed.WakeTail = dist.MustMixture(
		dist.Component{P: 0.5, D: dist.U(0, 3)},
		dist.Component{P: 0.3, D: dist.Exp(4)},
		dist.Component{P: 0.2, D: dist.MustMixture(dist.Component{P: 0.5, D: dist.Det(1)}, dist.Component{P: 0.5, D: dist.Exp(0)})},
	)
	mixed.KernelLate = dist.Exp(0)
	mixed.ThreadJitter = dist.Det(0.2)
	covered := map[string]int{}
	for name, params := range map[string]Params{"default": DefaultParams(3), "mixed": mixed} {
		for seed := uint64(1); seed <= 30; seed++ {
			ops := timerSchedule(seed)
			ref := runTimers(t, params, seed, ops, viaEager, false)
			for _, how := range []rearmWay{viaReset, viaStopSet} {
				for _, traced := range []bool{false, true} {
					got := runTimers(t, params, seed, ops, how, traced)
					switch {
					case !reflect.DeepEqual(got.fires, ref.fires):
						t.Fatalf("%s seed %d way %d traced %v: fires\n%v\nwant\n%v", name, seed, how, traced, got.fires, ref.fires)
					case got.steps != ref.steps || got.wakeups != ref.wakeups:
						t.Fatalf("%s seed %d way %d traced %v: %d steps, %d wake-ups; want %d, %d", name, seed, how, traced, got.steps, got.wakeups, ref.steps, ref.wakeups)
					case !reflect.DeepEqual(got.sched, ref.sched):
						t.Fatalf("%s seed %d way %d traced %v: schedRand states differ", name, seed, how, traced)
					}
					for k, n := range got.coverage {
						covered[k] += n
					}
				}
			}
			a := runTimers(t, params, seed, ops, viaReset, true)
			b := runTimers(t, params, seed, ops, viaStopSet, true)
			if !reflect.DeepEqual(a.trace, b.trace) {
				t.Fatalf("%s seed %d: Reset and Stop plus SetTimer trace differently", name, seed)
			}
		}
	}
	for _, k := range []string{"reset with its wake-up waiting for the CPU", "reset of a timer armed before a crash", "reset with d = 0", "reset of a pending timer"} {
		if covered[k] == 0 {
			t.Errorf("no schedule made a %s", k)
		}
	}
}
