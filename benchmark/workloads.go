package main

import (
	"fmt"

	"ctsan/campaign"
	"ctsan/internal/scenario"
)

// A workload is one study plus the way it is executed against the real
// binaries. The study sizes are fixed work per repetition; a run repeats
// the study on fresh directories for the requested number of seconds and
// reports medians over the repetitions.
type workload struct {
	name string
	// study builds the spec; scale shrinks every replica / execution /
	// point count (1 = the committed size, the smoke test uses 1/50).
	study func(scale float64) *campaign.Study
	// shards and workers pin `ctsan run -shards S -workers W`; S×W = 2 on
	// every workload, never derived from the host's CPU count.
	shards, workers int
	// service marks the one workload driven through ctsand instead of
	// `ctsan run`.
	service bool
}

var workloads = []workload{
	{name: "san-grid", study: sanGrid, shards: 1, workers: 2},
	{name: "emu-grid", study: emuGrid, shards: 1, workers: 2},
	{name: "fault-scenarios", study: faultScenarios, shards: 1, workers: 2},
	{name: "fine-grid-shards", study: fineGrid, shards: 2, workers: 1},
	{name: "fine-grid-service", study: fineGrid, shards: 2, workers: 1, service: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled shrinks a count, never below 1.
func scaled(n int, scale float64) int {
	if v := int(float64(n) * scale); v > 1 {
		return v
	}
	return 1
}

// sanGrid: only san + sanmodel (+ des, rng, dist) do work. Classes 1, 2
// and 3 of the paper's SAN model at the cluster sizes the paper sweeps.
func sanGrid(scale float64) *campaign.Study {
	big, small := scaled(sanBig, scale), scaled(sanSmall, scale)
	return campaign.NewStudy("san-grid",
		campaign.SANPoint{Name: "c1-n3", N: 3, Replicas: big},
		campaign.SANPoint{Name: "c1-n5", N: 5, Replicas: big},
		campaign.SANPoint{Name: "c1-n7", N: 7, Replicas: big},
		campaign.SANPoint{Name: "c2-n5", N: 5, Replicas: big, Crashed: []int{1}},
		campaign.SANPoint{Name: "c3-n3", N: 3, Replicas: small, TMR: 30, TM: 2},
		campaign.SANPoint{Name: "c3-n5", N: 5, Replicas: small, TMR: 30, TM: 2},
	)
}

// emuGrid: the experiment harness over netsim/neko/consensus/fd/des in
// steady state — no injections, few timers. Long single-assembly
// campaigns, so per-execution retention shows in peak RSS.
func emuGrid(scale float64) *campaign.Study {
	big, small := scaled(emuBig, scale), scaled(emuSmall, scale)
	return campaign.NewStudy("emu-grid",
		campaign.LatencyPoint{Name: "c1-n3", N: 3, Executions: big},
		campaign.LatencyPoint{Name: "c1-n5", N: 5, Executions: big},
		campaign.LatencyPoint{Name: "c1-n7", N: 7, Executions: big},
		campaign.LatencyPoint{Name: "c2-n5", N: 5, Executions: big, Crashed: []int{1}},
		campaign.LatencyPoint{Name: "c3-n3-T10", N: 3, Executions: small, TimeoutT: 10},
		campaign.LatencyPoint{Name: "c3-n5-T10", N: 5, Executions: small, TimeoutT: 10},
	)
}

// faultScenarios: the same emulation layers driven by the scenario
// harness — per-replica Reset, timeline compile, crash/recover,
// partitions, link rules, pause storms, heartbeat timers.
func faultScenarios(scale float64) *campaign.Study {
	s := campaign.NewStudy("fault-scenarios")
	for _, name := range scenario.Names() {
		s.Add(campaign.ScenarioPoint{Name: name, Replicas: scaled(scenarioReplicas, scale)})
	}
	return s
}

const fineGridName = "fine-grid"

// fineGrid: many tiny points, so per-point construction, campaign
// freeze/encode/merge, checkpoint appends and process supervision
// dominate the engines.
func fineGrid(scale float64) *campaign.Study {
	s := campaign.NewStudy(fineGridName)
	for i := 0; i < scaled(finePoints, scale); i++ {
		n := []int{3, 5, 7}[(i/3)%3]
		switch i % 3 {
		case 0:
			s.Add(campaign.SANPoint{Name: fmt.Sprintf("san-%04d", i), N: n, Replicas: fineSANReplicas})
		case 1:
			s.Add(campaign.LatencyPoint{Name: fmt.Sprintf("emu-%04d", i), N: n, Executions: fineExecutions})
		case 2:
			// The registry baseline is n=3; the other sizes come as inline
			// JSON timelines, so scenario.LoadJSON is on this path too.
			p := campaign.ScenarioPoint{Name: "paper-baseline", Replicas: 1, Executions: fineExecutions}
			if n != 3 {
				p.Name = fmt.Sprintf("baseline-n%d", n)
				p.SpecJSON = []byte(fmt.Sprintf(`{"name":%q,"n":%d}`, p.Name, n))
			}
			s.Add(p)
		}
	}
	return s
}

// slotHolder is the short local study that occupies ctsand's slot while
// the fleet study of fine-grid-service is admitted behind it. Its size
// buys time (about 0.2 s, many times a POST), so it does not scale.
func slotHolder() *campaign.Study {
	return campaign.NewStudy("slot-holder",
		campaign.SANPoint{Name: "c1-n5", N: 5, Replicas: holderReplicas})
}

// Committed sizes. One repetition of each study takes roughly a second
// on the 2-core sizing host, so a 10-second run holds several.
const (
	sanBig           = 7500
	sanSmall         = 3750
	emuBig           = 31250
	emuSmall         = 12500
	scenarioReplicas = 105
	finePoints       = 750
	fineSANReplicas  = 20
	fineExecutions   = 50
	holderReplicas   = 10000
)

// executions counts the consensus executions (Emulation, Scenario) or
// transient replicas (SAN) a frozen study performs: the denominator of
// exec_per_s and cpu_us_per_exec, and what the checker expects
// latency.n + aborted to add up to per point.
func executions(frozen []campaign.FrozenPoint) ([]int, int, error) {
	per := make([]int, len(frozen))
	total := 0
	for i, fp := range frozen {
		switch p := fp.Point.(type) {
		case campaign.SANPoint:
			per[i] = p.Replicas
		case campaign.LatencyPoint:
			per[i] = p.Executions
		case campaign.ScenarioPoint:
			execs := p.Executions
			if execs == 0 { // only registry scenarios are used without an override
				s, err := scenario.Get(p.Name)
				if err != nil {
					return nil, 0, err
				}
				execs = s.Executions
			}
			per[i] = p.Replicas * execs
		default:
			return nil, 0, fmt.Errorf("unsupported point type %T", fp.Point)
		}
		total += per[i]
	}
	return per, total, nil
}
