package scenario

import (
	"fmt"
	"sort"
	"sync"

	"ctsan/internal/dist"
	"ctsan/internal/neko"
)

// The registry maps names to scenario builders. Builders (not values) are
// registered so every Get returns a fresh Scenario the caller may mutate.
var (
	regMu    sync.Mutex
	registry = map[string]func() *Scenario{}
)

// Register adds a named scenario builder. The built scenario's Name must
// match the registered name and carry a non-empty Doc. Re-registering a
// name panics: built-ins must stay unambiguous.
func Register(name string, build func() *Scenario) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("scenario: duplicate registration of %q", name))
	}
	registry[name] = build
}

// Get returns a fresh instance of the named scenario.
func Get(name string) (*Scenario, error) {
	regMu.Lock()
	build, ok := registry[name]
	regMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("scenario: unknown scenario %q (known: %v)", name, Names())
	}
	return build(), nil
}

// Names returns the registered scenario names, sorted.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Info is the registry listing of one scenario as plain data: what a
// catalog UI (or the campaign service's /api/v1/scenarios endpoint)
// needs to present the built-ins without constructing or executing
// anything. The base gap and the heartbeat period are the effective ones,
// resolved by the replica harness (experiment.Check), so consumers need
// no defaulting rules.
type Info struct {
	Name           string           `json:"name"`
	Doc            string           `json:"doc"`
	N              int              `json:"n"`
	Executions     int              `json:"executions"`
	Gap            float64          `json:"gap_ms"`
	TimeoutT       float64          `json:"timeout_t_ms,omitempty"`
	PeriodTh       float64          `json:"period_th_ms,omitempty"`
	InitialCrashed []neko.ProcessID `json:"initial_crashed,omitempty"`
	Events         int              `json:"events"`
}

// List returns the registry as data, in Names() order: one Info per
// registered scenario.
func List() []Info {
	names := Names()
	out := make([]Info, 0, len(names))
	for _, name := range names {
		s, err := Get(name)
		if err != nil {
			continue // raced deregistration cannot happen for built-ins
		}
		shape, plan, err := check(s, RunConfig{})
		if err != nil {
			continue // a scenario no replica can run has no configuration to list
		}
		out = append(out, Info{
			Name:           s.Name,
			Doc:            s.Doc,
			N:              s.N,
			Executions:     s.Executions,
			Gap:            plan.Gap,
			TimeoutT:       s.TimeoutT,
			PeriodTh:       shape.PeriodTh,
			InitialCrashed: s.InitialCrashed,
			Events:         len(s.Events),
		})
	}
	return out
}

// Built-in scenarios. Each reproduces or extends a condition the paper
// measures; docs cite the section the phenomenon comes from.
func init() {
	Register("paper-baseline", func() *Scenario {
		return New("paper-baseline", 3).
			WithExecutions(400).
			WithDoc("§4 class-1 methodology: n=3, no faults, oracle FD, 10 ms gaps; " +
				"mean latency must reproduce the §5.2 measurement (~1.06 ms)")
	})

	Register("crash-n3-anomaly", func() *Scenario {
		return New("crash-n3-anomaly", 3).
			WithExecutions(400).
			WithInitialCrash(2).
			WithDoc("§5.3/Table 1: participant p2 crashed from the start at n=3 — the one case " +
				"where a participant crash *increases* measured latency, because the failed " +
				"unicast to p2 delays the later unicast of the same broadcast")
	})

	Register("rolling-crash", func() *Scenario {
		s := New("rolling-crash", 5).
			WithExecutions(350).
			WithHeartbeat(30, 0).
			WithDoc("crash churn: p2, p3, p4 crash and recover one after another under a live " +
				"heartbeat FD (T=30 ms) — detection transients and re-trust on every cycle " +
				"(the §6 'transient behavior after crashes' extension, repeated)")
		s.Crash(400, 2).Recover(900, 2)
		s.Crash(1400, 3).Recover(1900, 3)
		s.Crash(2400, 4).Recover(2900, 4)
		return s
	})

	Register("split-brain", func() *Scenario {
		s := New("split-brain", 5).
			WithExecutions(250).
			WithHeartbeat(30, 0).
			WithDoc("network partition {p1,p2} | {p3,p4,p5} during [500,1100) ms: the minority " +
				"side cannot decide, the majority side keeps deciding after suspecting the " +
				"minority; on heal the wrong suspicions clear — the correlated-mistake regime " +
				"the independent-FD SAN model cannot capture (§5.4)")
		s.Partition(500, []neko.ProcessID{1, 2}, []neko.ProcessID{3, 4, 5})
		s.Heal(1100)
		return s
	})

	Register("gc-storm", func() *Scenario {
		s := New("gc-storm", 3).
			WithExecutions(300).
			WithHeartbeat(20, 0).
			WithDoc("whole-host pause storm on every host during [300,1200) ms (inter-arrival " +
				"Exp(60), duration U[5,30]) — GC-like freezes starve heartbeat senders and " +
				"produce the correlated wrong suspicions of §5.4")
		s.PauseStorm(300, 1200, 0, dist.Exp(60), dist.U(5, 30))
		return s
	})

	Register("burst-load", func() *Scenario {
		s := New("burst-load", 3).
			WithExecutions(400).
			WithHeartbeat(20, 0).
			WithDoc("workload burst: execution gap drops from 10 ms to 2 ms during [400,1200) " +
				"ms, then relaxes to 15 ms — load-induced contention moves both latency and " +
				"FD QoS, the coupling the paper measures via T_exp (§4)")
		s.WorkloadPhase(400, "burst", 2)
		s.WorkloadPhase(1200, "calm", 15)
		return s
	})

	Register("flaky-link", func() *Scenario {
		s := New("flaky-link", 3).
			WithExecutions(300).
			WithHeartbeat(20, 0).
			WithDoc("asymmetric link degradation: p1→p2 and p2→p1 lose 5% of frames and pay " +
				"Exp(2) ms extra latency during [300,1200) ms — heartbeat gaps on one link " +
				"cause localized wrong suspicions without global contention")
		s.DegradeLink(300, 1200, 1, 2, dist.Exp(2), 0.05)
		s.DegradeLink(300, 1200, 2, 1, dist.Exp(2), 0.05)
		return s
	})
}
