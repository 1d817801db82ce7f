package sanmodel

import (
	"fmt"

	"ctsan/internal/dist"
	"ctsan/internal/san"
)

// Instantaneous-activity priorities: higher completes first. The order
// prefers progress (deciding, accepting a proposal) over failure handling,
// mirroring the implementation's dispatch order.
const (
	prioFDInit      = 10
	prioDecide      = 6
	prioAccept      = 5
	prioPropose     = 4
	prioRoundFailed = 4
	prioSuspect     = 3
	prioStart       = 2
	prioSeize       = 1
)

// buildPipelines creates the message pipelines originating at process pr:
// per-tag estimate/ack/nack unicasts to the tag's coordinator, and the
// proposal and decision broadcasts (single messages with larger t_net,
// §5.1, fanned out to every other process after the network stage).
func (b *builder) buildPipelines(pr *proc) {
	ns := b.m.Namespace(fmt.Sprintf("P%d.net", pr.id))
	for tag := 0; tag < b.p.N; tag++ {
		dst := b.coordOf(tag)
		if dst == pr.id {
			// A process never message-sends to itself: its own estimate
			// and acknowledgment are counted locally.
			pr.estPipe = append(pr.estPipe, pipe{})
			pr.ackPipe = append(pr.ackPipe, pipe{})
			pr.nackPipe = append(pr.nackPipe, pipe{})
			continue
		}
		tag := tag
		pr.estPipe = append(pr.estPipe, b.unicast(ns, fmt.Sprintf("est%d", tag), pr, dst,
			func(mk *san.Marking) { mk.Add(b.procs[dst-1].estCnt[tag], 1) }))
		pr.ackPipe = append(pr.ackPipe, b.unicast(ns, fmt.Sprintf("ack%d", tag), pr, dst,
			func(mk *san.Marking) { mk.Add(b.procs[dst-1].ackCnt[tag], 1) }))
		pr.nackPipe = append(pr.nackPipe, b.unicast(ns, fmt.Sprintf("nack%d", tag), pr, dst,
			func(mk *san.Marking) { mk.Add(b.procs[dst-1].nackCnt[tag], 1) }))
	}
	// Proposal broadcast: the tag is the sender's own coordinator tag.
	myTag := pr.id % b.p.N
	bcast := b.broadcast
	if b.p.UnicastBroadcast {
		bcast = b.broadcastAsUnicasts
	}
	pr.propPipe = bcast(ns, "prop", pr, func(dst *proc) func(mk *san.Marking) {
		return func(mk *san.Marking) { mk.Set(dst.propSeen[myTag], 1) }
	})
	pr.decidePip = bcast(ns, "decide", pr, func(dst *proc) func(mk *san.Marking) {
		return func(mk *san.Marking) { mk.Set(dst.decided, 1) }
	})
}

// stage builds one seize/serve resource stage: tokens wait in q until the
// resource place holds a token, an instantaneous seize moves the token into
// an in-service place (taking the resource), and a timed serve activity
// releases the resource and forwards the token.
//
// The seize/serve split is essential: SAN timed activities consume their
// input tokens only at completion, so a plain "q + resource -> out" timed
// activity would never actually hold the resource during service and all
// messages would be transmitted in parallel. The paper's step decomposition
// (§3.3: "m takes and uses the network resource for some time t_net") is
// the seize/serve pattern.
func (b *builder) stage(ns *san.Model, name string, q, resource *san.Place, serveTime dist.Dist) (serve *san.Activity) {
	busy := ns.Place(name+".busy", 0)
	ns.Instant(name+".seize", prioSeize).
		Input(q, resource).
		FIFO(q).
		Output(busy)
	return ns.Timed(name+".serve", san.Fixed(serveTime)).
		Input(busy).
		Output(resource)
}

// unicast builds the seven-step pipeline pr -> dst of Fig. 3 and returns
// its entry place. deliver runs on the destination host when t_receive
// completes.
func (b *builder) unicast(ns *san.Model, name string, pr *proc, dstID int, deliver func(mk *san.Marking)) pipe {
	dst := b.procs[dstID-1]
	pp := pipe{
		sendq: ns.Place(name+".sendq", 0),
		netq:  ns.Place(name+".netq", 0),
		recvq: ns.Place(name+".recvq", 0),
	}
	b.stage(ns, name+".send", pp.sendq, pr.cpu, dist.Det(b.p.TSend)).Output(pp.netq)
	net := b.stage(ns, name+".net", pp.netq, b.network, b.p.NetUnicast)
	if dst.crashed {
		// The host is down: frames addressed to it vanish after the
		// medium, consuming no destination CPU.
		net.Output(pp.recvq)
		return pp
	}
	net.Output(pp.recvq)
	b.stage(ns, name+".recv", pp.recvq, dst.cpu, dist.Det(b.p.TReceive)).
		OutputGate(name+".deliver", deliver)
	return pp
}

// broadcast builds a single-message broadcast pipeline from pr to all
// other processes: one t_send, one (larger) t_net, then per-destination
// receive processing.
func (b *builder) broadcast(ns *san.Model, name string, pr *proc, deliverTo func(dst *proc) func(mk *san.Marking)) pipe {
	pp := pipe{
		sendq: ns.Place(name+".sendq", 0),
		netq:  ns.Place(name+".netq", 0),
	}
	b.stage(ns, name+".send", pp.sendq, pr.cpu, dist.Det(b.p.TSend)).Output(pp.netq)
	net := b.stage(ns, name+".net", pp.netq, b.network, b.p.NetBroadcast)
	outCase := net.DefaultCase()
	for j := 1; j <= b.p.N; j++ {
		if j == pr.id {
			continue
		}
		dst := b.procs[j-1]
		recvq := ns.Place(fmt.Sprintf("%s.recvq%d", name, j), 0)
		outCase.Output(recvq)
		if dst.crashed {
			continue
		}
		b.stage(ns, fmt.Sprintf("%s.recv%d", name, j), recvq, dst.cpu, dist.Det(b.p.TReceive)).
			OutputGate(fmt.Sprintf("%s.deliver%d", name, j), deliverTo(dst))
	}
	return pp
}

// broadcastAsUnicasts is the UnicastBroadcast ablation: one deposited
// token fans out into n−1 independent unicast pipelines in ascending
// destination order, exactly like the implementation (§5.1: "in the
// implementation they are n−1 unicast messages").
func (b *builder) broadcastAsUnicasts(ns *san.Model, name string, pr *proc, deliverTo func(dst *proc) func(mk *san.Marking)) pipe {
	pp := pipe{sendq: ns.Place(name+".sendq", 0)}
	fan := ns.Instant(name+".fan", prioSeize+1).Input(pp.sendq)
	out := fan.DefaultCase()
	for j := 1; j <= b.p.N; j++ {
		if j == pr.id {
			continue
		}
		dst := b.procs[j-1]
		uni := b.unicast(ns, fmt.Sprintf("%s.u%d", name, j), pr, j, deliverTo(dst))
		out.Output(uni.sendq)
	}
	return pp
}

// buildStateMachine creates the per-round control state machine of §3.2:
// P1C (coordinator), P1A1/P1A2a/P1A2b (participant), P1A3 (new round).
func (b *builder) buildStateMachine(pr *proc) {
	if pr.crashed {
		return
	}
	ns := b.m.Namespace(fmt.Sprintf("P%d.sm", pr.id))
	n := b.p.N
	notDecided := func(mk *san.Marking) bool { return mk.Get(pr.decided) == 0 }

	// advance moves to the next round (P1A3): increments the mod-n round
	// tag and re-marks Start, unless the rounds guard trips.
	advance := func(mk *san.Marking) {
		mk.Set(pr.round, (mk.Get(pr.round)+1)%n)
		mk.Add(b.rounds, 1)
		if mk.Get(b.rounds) > b.p.MaxRoundsGuard {
			mk.Set(b.aborted, 1)
			return
		}
		mk.Set(pr.start, 1)
	}

	// P1A1 / P1C entry: on starting a round, the coordinator begins
	// collecting (its own estimate counts); a participant sends its
	// estimate to the coordinator and waits for the proposal.
	ns.Instant("startRound", prioStart).
		Input(pr.start).
		InputGate("notDecided", []*san.Place{pr.decided}, notDecided, nil).
		OutputGate("begin", func(mk *san.Marking) {
			tag := mk.Get(pr.round)
			if b.coordOf(tag) == pr.id {
				mk.Set(pr.collect, 1)
				mk.Add(pr.estCnt[tag], 1)
				return
			}
			mk.Add(pr.estPipe[tag].sendq, 1)
			mk.Set(pr.waitProp, 1)
		})

	// P1C: with a majority of estimates, broadcast the proposal and wait
	// for acknowledgments (the coordinator's own ack is implicit).
	estReads := append([]*san.Place{pr.round, pr.decided}, pr.estCnt...)
	ns.Instant("propose", prioPropose).
		Input(pr.collect).
		InputGate("haveMajorityEst", estReads, func(mk *san.Marking) bool {
			return notDecided(mk) && mk.Get(pr.estCnt[mk.Get(pr.round)]) >= b.maj
		}, nil).
		OutputGate("sendProposal", func(mk *san.Marking) {
			tag := mk.Get(pr.round)
			mk.Set(pr.estCnt[tag], 0)
			mk.Add(pr.ackCnt[tag], 1)
			mk.Set(pr.waitAck, 1)
			mk.Add(pr.propPipe.sendq, 1)
		})

	// P1A2a: the proposal arrived — adopt it, ack positively, next round.
	propReads := append([]*san.Place{pr.round, pr.decided}, pr.propSeen...)
	ns.Instant("acceptProp", prioAccept).
		Input(pr.waitProp).
		InputGate("proposalArrived", propReads, func(mk *san.Marking) bool {
			return notDecided(mk) && mk.Get(pr.propSeen[mk.Get(pr.round)]) > 0
		}, nil).
		OutputGate("ackAndAdvance", func(mk *san.Marking) {
			tag := mk.Get(pr.round)
			mk.Set(pr.propSeen[tag], 0)
			mk.Add(pr.ackPipe[tag].sendq, 1)
			advance(mk)
		})

	// P1A2b: the failure detector suspects the coordinator — nack, next
	// round.
	suspReads := append([]*san.Place{pr.round, pr.decided}, pr.suspects...)
	ns.Instant("suspectCoord", prioSuspect).
		Input(pr.waitProp).
		InputGate("coordSuspected", suspReads, func(mk *san.Marking) bool {
			return notDecided(mk) && mk.Get(pr.suspects[b.coordOf(mk.Get(pr.round))-1]) > 0
		}, nil).
		OutputGate("nackAndAdvance", func(mk *san.Marking) {
			tag := mk.Get(pr.round)
			mk.Add(pr.nackPipe[tag].sendq, 1)
			advance(mk)
		})

	// P1C conclusion: a majority of replies, all positive — decide and
	// broadcast the decision.
	ackReads := append([]*san.Place{pr.round, pr.decided}, pr.ackCnt...)
	ackReads = append(ackReads, pr.nackCnt...)
	ns.Instant("decide", prioDecide).
		Input(pr.waitAck).
		InputGate("allAcksPositive", ackReads, func(mk *san.Marking) bool {
			tag := mk.Get(pr.round)
			return notDecided(mk) && mk.Get(pr.nackCnt[tag]) == 0 &&
				mk.Get(pr.ackCnt[tag]) >= b.maj
		}, nil).
		OutputGate("broadcastDecision", func(mk *san.Marking) {
			mk.Set(pr.decided, 1)
			mk.Add(pr.decidePip.sendq, 1)
		})

	// P1C failure: a majority of replies including a nack — next round.
	ns.Instant("roundFailed", prioRoundFailed).
		Input(pr.waitAck).
		InputGate("someNack", ackReads, func(mk *san.Marking) bool {
			tag := mk.Get(pr.round)
			return notDecided(mk) && mk.Get(pr.nackCnt[tag]) >= 1 &&
				mk.Get(pr.ackCnt[tag])+mk.Get(pr.nackCnt[tag]) >= b.maj
		}, nil).
		OutputGate("nextRound", func(mk *san.Marking) {
			tag := mk.Get(pr.round)
			mk.Set(pr.ackCnt[tag], 0)
			mk.Set(pr.nackCnt[tag], 0)
			advance(mk)
		})
}

// buildCorrelatedFD is the FDCorrelated ablation: one Trust/Susp
// alternation per monitored process q, shared by every observer — the
// opposite extreme of the paper's independence assumption (§5.4). The
// per-pair suspicion places created earlier are rebound to the shared one.
func (b *builder) buildCorrelatedFD(crashed map[int]bool) {
	if b.p.FD.TMR <= 0 {
		return
	}
	trustDist, suspDist := b.fdSojourns()
	ns := b.m.Namespace("fdShared")
	for j := 1; j <= b.p.N; j++ {
		if crashed[j] {
			continue // class-2 static suspicion stays per observer
		}
		susp := ns.Place(fmt.Sprintf("Susp%d", j), 0)
		trust := ns.Place(fmt.Sprintf("Trust%d", j), 0)
		initP := ns.Place(fmt.Sprintf("Init%d", j), 1)
		init := ns.Instant(fmt.Sprintf("init%d", j), prioFDInit).Input(initP)
		init.Case(b.p.FD.TM / b.p.FD.TMR).Output(susp)
		init.Case(1 - b.p.FD.TM/b.p.FD.TMR).Output(trust)
		ns.Timed(fmt.Sprintf("ts%d", j), san.Fixed(trustDist)).Input(trust).Output(susp)
		ns.Timed(fmt.Sprintf("st%d", j), san.Fixed(suspDist)).Input(susp).Output(trust)
		for _, pr := range b.procs {
			if pr.id != j && !pr.crashed {
				pr.suspects[j-1] = susp
			}
		}
	}
}

// fdSojourns returns the Trust and Susp sojourn distributions implied by
// the configured QoS metrics, which Params.check bounds.
func (b *builder) fdSojourns() (trustDist, suspDist dist.Dist) {
	tm, tmr := b.p.FD.TM, b.p.FD.TMR
	if b.p.FD.Kind == FDExponential {
		return dist.Exp(tmr - tm), dist.Exp(tm)
	}
	return dist.Det(tmr - tm), dist.Det(tm)
}

// buildFD creates the two-state failure-detector submodels (§3.4, Fig. 5)
// at process pr for every monitored correct peer. Crashed peers keep their
// static suspicion (class 2); TMR <= 0 disables mistakes (class 1).
func (b *builder) buildFD(pr *proc, crashed map[int]bool) {
	if pr.crashed || b.p.FD.TMR <= 0 {
		return
	}
	tm, tmr := b.p.FD.TM, b.p.FD.TMR
	trustDist, suspDist := b.fdSojourns()
	ns := b.m.Namespace(fmt.Sprintf("P%d.fd", pr.id))
	for j := 1; j <= b.p.N; j++ {
		if j == pr.id || crashed[j] {
			continue
		}
		susp := pr.suspects[j-1]
		trust := ns.Place(fmt.Sprintf("Trust%d", j), 0)
		initP := ns.Place(fmt.Sprintf("Init%d", j), 1)
		// Instantaneous init: Susp with probability TM/TMR (the
		// steady-state fraction of time spent suspecting), Trust otherwise.
		init := ns.Instant(fmt.Sprintf("init%d", j), prioFDInit).Input(initP)
		init.Case(tm / tmr).Output(susp)
		init.Case(1 - tm/tmr).Output(trust)
		// ts: trust -> suspect after a mean sojourn of TMR - TM;
		// st: suspect -> trust after a mean sojourn of TM.
		ns.Timed(fmt.Sprintf("ts%d", j), san.Fixed(trustDist)).Input(trust).Output(susp)
		ns.Timed(fmt.Sprintf("st%d", j), san.Fixed(suspDist)).Input(susp).Output(trust)
	}
}
