package netsim

import (
	"fmt"

	"ctsan/internal/dist"
	"ctsan/internal/neko"
	"ctsan/internal/trace"
)

// This file is the cluster's fault- and workload-injection surface: timed
// state changes scheduled as DES events against the emulated hardware.
// internal/scenario compiles declarative scenario timelines onto it; tests
// and experiment harnesses may also call it directly. All injection
// methods may be invoked before Run or from within event callbacks;
// instants in the past are clamped to the current simulated time.
//
// None of these facilities consume randomness unless actually exercised
// (link loss and added latency draw from a dedicated child stream), so a
// run without injections is bit-identical to one on a build without them.

// linkKey identifies a directed link p→q.
type linkKey struct {
	from, to neko.ProcessID
}

// linkRule degrades one directed link: each frame leaving the hub for
// this link is dropped with probability Loss, and surviving frames are
// delayed by an ExtraDelay sample before entering the receive path.
type linkRule struct {
	Loss       float64
	ExtraDelay dist.Dist
}

// injectKind discriminates what a pooled injectCall does when it fires.
type injectKind uint8

const (
	injCrash injectKind = iota
	injRecover
	injPartition
	injHeal
	injLinkSet
	injLinkClear
	injPhase
)

// injectCall is a pooled injection event: scenario timelines recompile
// onto a reused cluster every replica, so the per-injection closures this
// replaces were a per-replica allocation source. One record type covers
// all injection kinds; the fields a kind does not use stay zero.
type injectCall struct {
	c        *Cluster
	kind     injectKind
	h        *host
	from, to neko.ProcessID
	extra    dist.Dist
	loss     float64
	assign   []int
	groups   int64
	name     string
	runFn    func()
}

func (c *Cluster) makeInjectCall() *injectCall {
	ic := &injectCall{c: c}
	ic.runFn = ic.run
	return ic
}

// inject takes a blank record from the pool, ready for the caller to fill.
func (c *Cluster) inject(kind injectKind) *injectCall {
	ic := c.injects.get()
	ic.kind = kind
	return ic
}

func (ic *injectCall) run() {
	c := ic.c
	kind, h := ic.kind, ic.h
	from, to := ic.from, ic.to
	extra, loss := ic.extra, ic.loss
	assign, groups := ic.assign, ic.groups
	name := ic.name
	// Release before executing, dropping references so the pool pins
	// nothing (the partition assignment's ownership moves to c.group).
	ic.h = nil
	ic.extra = nil
	ic.assign = nil
	ic.name = ""
	c.injects.put(ic)
	switch kind {
	case injCrash:
		if !h.down {
			h.down = true
			h.epoch++
			if c.tracer != nil {
				c.tracer.Emit(trace.Event{T: c.sim.Now(), P: int32(h.id), Kind: trace.KindCrash})
			}
		}
	case injRecover:
		if !h.down {
			return
		}
		h.down = false
		if c.tracer != nil {
			c.tracer.Emit(trace.Event{T: c.sim.Now(), P: int32(h.id), Kind: trace.KindRecover})
		}
		if h.stack != nil {
			h.stack.Start()
		}
	case injPartition:
		c.group = assign
		if c.tracer != nil {
			c.tracer.Emit(trace.Event{T: c.sim.Now(), Kind: trace.KindPartition, A: groups})
		}
	case injHeal:
		c.group = nil
		if c.tracer != nil {
			c.tracer.Emit(trace.Event{T: c.sim.Now(), Kind: trace.KindHeal})
		}
	case injLinkSet:
		if c.links == nil {
			c.links = make(map[linkKey]linkRule)
		}
		c.links[linkKey{from, to}] = linkRule{Loss: loss, ExtraDelay: extra}
		if c.tracer != nil {
			c.tracer.Emit(trace.Event{T: c.sim.Now(), P: int32(from), Q: int32(to), Kind: trace.KindLinkSet, X: loss})
		}
	case injLinkClear:
		delete(c.links, linkKey{from, to})
		if c.tracer != nil {
			c.tracer.Emit(trace.Event{T: c.sim.Now(), P: int32(from), Q: int32(to), Kind: trace.KindLinkClear})
		}
	case injPhase:
		if c.tracer != nil {
			c.tracer.Emit(trace.Event{T: c.sim.Now(), Kind: trace.KindPhase, S: name})
		}
		for _, fn := range c.phaseFns {
			fn(name, c.sim.Now())
		}
	}
}

// RecoverAt schedules the recovery of a crashed process at global time t:
// the process resumes receiving messages, and its protocol stack is
// restarted (heartbeat emission resumes, timers re-arm). Timers armed
// before the crash stay dead — a crash wipes volatile state. Recovering a
// process that is not down at t is a no-op.
func (c *Cluster) RecoverAt(id neko.ProcessID, t float64) {
	ic := c.inject(injRecover)
	ic.h = c.hostFor(id)
	c.at(t, ic.runFn)
}

// PartitionAt schedules a network partition at global time t: from then
// on the hub drops every frame whose sender and receiver are in different
// groups. Processes not listed in any group form one additional implicit
// group of their own (isolated from all listed groups, connected to each
// other). A later PartitionAt replaces the previous partition; HealAt
// removes it.
func (c *Cluster) PartitionAt(t float64, groups ...[]neko.ProcessID) error {
	n := c.params.N
	assign := make([]int, n+1)
	for i := range assign {
		assign[i] = 0 // implicit group of unlisted processes
	}
	for gi, g := range groups {
		for _, id := range g {
			if id < 1 || int(id) > n {
				return fmt.Errorf("netsim: partition group %d: process %d out of range 1..%d", gi, id, n)
			}
			if assign[id] != 0 {
				return fmt.Errorf("netsim: process %d listed in two partition groups", id)
			}
			assign[id] = gi + 1
		}
	}
	ic := c.inject(injPartition)
	ic.assign, ic.groups = assign, int64(len(groups))
	c.at(t, ic.runFn)
	return nil
}

// HealAt schedules the removal of the current partition at global time t:
// all links work again from then on. Frames already dropped stay lost —
// the transports the paper measures (TCP over a hub) do not retransmit
// across a partition at this abstraction level; protocol-level recovery
// (heartbeats, retried rounds) is what the scenarios observe.
func (c *Cluster) HealAt(t float64) {
	c.at(t, c.inject(injHeal).runFn)
}

// partitioned reports whether the current partition separates from → to.
func (c *Cluster) partitioned(from, to neko.ProcessID) bool {
	return c.group != nil && c.group[from] != c.group[to]
}

// SetLinkAt schedules a degradation rule for the directed link from → to
// starting at global time t: frames are dropped with probability loss,
// and survivors are delayed by an extra sample (nil means no added
// latency). The rule replaces any previous rule on that link and stays in
// force until ClearLinkAt.
func (c *Cluster) SetLinkAt(t float64, from, to neko.ProcessID, extra dist.Dist, loss float64) error {
	if from < 1 || int(from) > c.params.N || to < 1 || int(to) > c.params.N {
		return fmt.Errorf("netsim: link %d→%d out of range 1..%d", from, to, c.params.N)
	}
	if loss < 0 || loss > 1 {
		return fmt.Errorf("netsim: link loss probability %g outside [0,1]", loss)
	}
	ic := c.inject(injLinkSet)
	ic.from, ic.to, ic.extra, ic.loss = from, to, extra, loss
	c.at(t, ic.runFn)
	return nil
}

// ClearLinkAt schedules the removal of the degradation rule on the
// directed link from → to at global time t.
func (c *Cluster) ClearLinkAt(t float64, from, to neko.ProcessID) {
	ic := c.inject(injLinkClear)
	ic.from, ic.to = from, to
	c.at(t, ic.runFn)
}

// pauseCall is a pooled PauseAt event: scenario pause storms schedule
// thousands of them, so they get the transit/timer record treatment.
type pauseCall struct {
	h     *host
	dur   float64
	runFn func()
}

func (c *Cluster) makePauseCall() *pauseCall {
	p := &pauseCall{}
	p.runFn = func() {
		if c.tracer != nil {
			c.tracer.Emit(trace.Event{T: c.sim.Now(), P: int32(p.h.id), Kind: trace.KindPause, X: p.dur})
		}
		p.h.reserveCPU(p.dur, nil)
		c.pauses.put(p)
	}
	return p
}

// PauseAt schedules a whole-host execution pause of dur milliseconds on
// process id's host starting at global time t: the CPU is occupied, so
// timers, sends and receive processing are deferred until the pause ends
// (plus any work already queued). Scenario pause storms are sequences of
// PauseAt injections.
func (c *Cluster) PauseAt(id neko.ProcessID, t, dur float64) {
	p := c.pauses.get()
	p.h, p.dur = c.hostFor(id), dur
	c.at(t, p.runFn)
}

// PhaseAt schedules a named phase transition at global time t. Phases
// carry no cluster-level semantics of their own: observers registered
// with OnPhase react (the scenario campaign switches workload intensity
// on them).
func (c *Cluster) PhaseAt(t float64, name string) {
	ic := c.inject(injPhase)
	ic.name = name
	c.at(t, ic.runFn)
}

// OnPhase registers an observer for PhaseAt transitions.
func (c *Cluster) OnPhase(fn func(name string, at float64)) {
	c.phaseFns = append(c.phaseFns, fn)
}
