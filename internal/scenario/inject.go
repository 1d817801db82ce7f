package scenario

import (
	"math"

	"ctsan/internal/neko"
	"ctsan/internal/netsim"
	"ctsan/internal/rng"
)

// interval is a half-open [from, to) span of global time.
type interval struct{ from, to float64 }

// Timeline is a scenario compiled against one cluster replica: every
// injection is scheduled as a DES event, drawn instants are resolved, and
// the resulting ground truth (who is down when, which workload phase is
// in force) is queryable — the runner uses it to size execution quorums
// and to classify failure-detector suspicions as right or wrong.
type Timeline struct {
	// down[p] holds p's crash intervals, sorted by start.
	down map[neko.ProcessID][]interval
	// phases is the workload schedule, sorted by time; phases[0] is the
	// scenario's base gap at t = 0.
	phases []phasePoint
}

type phasePoint struct {
	at    float64
	gap   float64
	label string
}

// resolvedEvent is one scenario event with its resolved instant and its
// dedicated randomness stream. The stream is held by value so successive
// compilations rewind it in place (rng.ChildInto) instead of allocating.
type resolvedEvent struct {
	ev Event
	at float64
	r  rng.Stream
}

// program is a scenario compiled once per replica assembly: the timeline
// and every compilation buffer live as long as the replica, and
// compileInto rewinds them per run. The per-run work — jitter draws,
// ground truth, event scheduling — still happens every run (instants
// depend on the replica seed), but against retained storage, so
// steady-state recompilation allocates nothing.
type program struct {
	tl    Timeline
	res   []resolvedEvent
	order []int
	hosts []neko.ProcessID
}

// compileInto resolves drawn instants and schedules every event of s
// against c, rewinding and reusing p's buffers. Randomness comes from
// per-event child streams of r (event i draws from r.Child(i)), so adding
// draws to one event never perturbs another, and compilation is
// deterministic in r for any event order. gap is the base execution gap,
// in force until the first workload event. Validate must have passed.
func (s *Scenario) compileInto(p *program, c *netsim.Cluster, r *rng.Stream, gap float64) error {
	tl := &p.tl
	if tl.down == nil {
		tl.down = make(map[neko.ProcessID][]interval)
	}
	for pid, ivs := range tl.down {
		tl.down[pid] = ivs[:0]
	}
	tl.phases = append(tl.phases[:0], phasePoint{at: 0, gap: gap, label: "base"})
	for _, pid := range s.InitialCrashed {
		tl.down[pid] = append(tl.down[pid], interval{0, math.Inf(1)})
	}
	// First pass: resolve instants and per-event streams into the
	// retained buffer.
	if cap(p.res) < len(s.Events) {
		p.res = make([]resolvedEvent, len(s.Events))
		p.order = make([]int, len(s.Events))
	}
	p.res = p.res[:len(s.Events)]
	p.order = p.order[:len(s.Events)]
	for i, e := range s.Events {
		rv := &p.res[i]
		rv.ev = e
		r.ChildInto(&rv.r, uint64(i))
		at := e.At
		if e.AtJitter != nil {
			at += e.AtJitter.Sample(&rv.r)
			if at < 0 {
				at = 0
			}
		}
		rv.at = at
		p.order[i] = i
	}
	// Crash/recover ground truth needs chronological pairing. Insertion
	// sort is stable, so it yields the same permutation as the
	// sort.SliceStable it replaces, without the closure allocation.
	order := p.order
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && p.res[order[j]].at < p.res[order[j-1]].at; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	for _, i := range order {
		e, at := p.res[i].ev, p.res[i].at
		switch e.Kind {
		case KindCrash:
			ivs := tl.down[e.P]
			if len(ivs) == 0 || !math.IsInf(ivs[len(ivs)-1].to, 1) {
				tl.down[e.P] = append(ivs, interval{at, math.Inf(1)})
			}
		case KindRecover:
			ivs := tl.down[e.P]
			if len(ivs) > 0 && math.IsInf(ivs[len(ivs)-1].to, 1) && ivs[len(ivs)-1].from <= at {
				ivs[len(ivs)-1].to = at
			}
		case KindWorkload:
			// Appended in chronological order (this loop follows order), so
			// phases end up sorted with the base point first — the stable
			// re-sort the pre-program code did here was an identity.
			tl.phases = append(tl.phases, phasePoint{at: at, gap: e.Gap, label: e.Label})
		}
	}

	// Second pass: schedule cluster events (original order; instants do
	// the sequencing).
	for i := range p.res {
		rv := &p.res[i]
		e, at := rv.ev, rv.at
		switch e.Kind {
		case KindCrash:
			c.CrashAt(e.P, at)
		case KindRecover:
			c.RecoverAt(e.P, at)
		case KindPartition:
			if err := c.PartitionAt(at, e.Groups...); err != nil {
				return err
			}
		case KindHeal:
			c.HealAt(at)
		case KindLink:
			// The window end is declarative: jitter that pushes the start
			// past Until leaves an empty window, not a permanent rule.
			if e.Until > 0 && at >= e.Until {
				continue
			}
			if err := c.SetLinkAt(at, e.From, e.To, e.Extra, e.Loss); err != nil {
				return err
			}
			if e.Until > 0 {
				c.ClearLinkAt(e.Until, e.From, e.To)
			}
		case KindLinkClear:
			c.ClearLinkAt(at, e.From, e.To)
		case KindPauseStorm:
			hosts := append(p.hosts[:0], e.P)
			if e.P == 0 {
				hosts = hosts[:0]
				for q := neko.ProcessID(1); int(q) <= s.N; q++ {
					hosts = append(hosts, q)
				}
			}
			for _, q := range hosts {
				for t := at + e.Every.Sample(&rv.r); t < e.Until; t += e.Every.Sample(&rv.r) {
					c.PauseAt(q, t, e.Dur.Sample(&rv.r))
				}
			}
			p.hosts = hosts[:0]
		case KindWorkload:
			c.PhaseAt(at, e.Label)
		}
	}
	return nil
}

// UpAt reports whether process p is up (not crashed) at global time t.
// Pauses and partitions do not count as down: a frozen or unreachable
// process is still alive, which is exactly why suspecting it is a wrong
// suspicion.
func (tl *Timeline) UpAt(p neko.ProcessID, t float64) bool {
	for _, iv := range tl.down[p] {
		if t >= iv.from && t < iv.to {
			return false
		}
	}
	return true
}

// GapAt returns the execution gap in force at global time t.
func (tl *Timeline) GapAt(t float64) float64 {
	gap := tl.phases[0].gap
	for _, ph := range tl.phases {
		if ph.at > t {
			break
		}
		gap = ph.gap
	}
	return gap
}
