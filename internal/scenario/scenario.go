// Package scenario is the declarative fault- and workload-injection layer
// of the repository: a timeline of adverse conditions — process crashes
// and recoveries, network partitions and heals, per-link degradation,
// pause storms, workload phases — compiled onto the emulated cluster
// (internal/netsim) and driven through consensus measurement campaigns.
//
// The paper's central claim (§5.4) is that correlated real-world faults
// move consensus latency and failure-detector QoS in ways an
// independent-FD analytical model cannot capture. The seed repository
// could express exactly two such phenomena (a static crash list and
// background pauses); this package gives every phenomenon the cluster can
// emulate a single declarative surface:
//
//   - a Scenario is a value: build one with New and the fluent builder
//     methods, or load one from JSON (LoadJSON);
//   - Run executes one replica of a scenario and reports latencies,
//     wrong-suspicion counts and decision throughput — as a configuration
//     of the one replica harness (experiment.Harness): the scenario adds
//     only the post-rewind step that compiles its timeline onto the
//     cluster, the timeline-driven up-set and gap, and ground-truthed
//     suspicion counting;
//   - RunCampaignContext fans a scenario × replica grid across CPUs via
//     internal/parallel with bit-identical results at any worker count;
//   - the registry (Get, Names, Register) holds named built-ins —
//     paper-baseline, crash-n3-anomaly, rolling-crash, split-brain,
//     gc-storm, burst-load, flaky-link — exercised by `ctsan scenario`.
//
// All times are float64 milliseconds of global simulated time, as
// everywhere in the repository.
package scenario

import (
	"fmt"

	"ctsan/internal/dist"
	"ctsan/internal/neko"
)

// Kind enumerates the event types a scenario timeline can contain.
type Kind string

const (
	// KindCrash crashes process P at time At.
	KindCrash Kind = "crash"
	// KindRecover recovers process P at time At (restarting its stack).
	KindRecover Kind = "recover"
	// KindPartition splits the cluster into Groups at time At; unlisted
	// processes form one implicit group of their own.
	KindPartition Kind = "partition"
	// KindHeal removes the partition at time At.
	KindHeal Kind = "heal"
	// KindLink installs a degradation rule on the directed link From→To
	// at time At: loss probability Loss and added latency Extra. If Until
	// is set (> At), the rule is removed again at Until.
	KindLink Kind = "link"
	// KindLinkClear removes the rule on From→To at time At.
	KindLinkClear Kind = "link-clear"
	// KindPauseStorm freezes host P (0 = every host) repeatedly in the
	// window [At, Until): pauses recur with inter-arrival Every and last
	// Dur each — a GC / IRQ storm.
	KindPauseStorm Kind = "pause-storm"
	// KindWorkload switches the workload phase at time At: from then on
	// consensus executions start Gap milliseconds apart. Label names the
	// phase (netsim.PhaseAt observers see it).
	KindWorkload Kind = "workload"
)

// Event is one entry of a scenario timeline. Exactly the fields its Kind
// documents are meaningful; the flat shape keeps timelines JSON-loadable
// and diffable. Times are global simulated milliseconds.
type Event struct {
	Kind Kind    `json:"kind"`
	At   float64 `json:"at"`
	// AtJitter, when non-nil, is sampled once per replica and added to At
	// — the distribution-drawn form of injection instants. Different
	// replicas draw different instants; a given replica is deterministic
	// in its seed.
	AtJitter dist.Dist          `json:"-"`
	Until    float64            `json:"until,omitempty"`
	P        neko.ProcessID     `json:"p,omitempty"`
	From     neko.ProcessID     `json:"from,omitempty"`
	To       neko.ProcessID     `json:"to,omitempty"`
	Groups   [][]neko.ProcessID `json:"groups,omitempty"`
	Every    dist.Dist          `json:"-"`
	Dur      dist.Dist          `json:"-"`
	Extra    dist.Dist          `json:"-"`
	Loss     float64            `json:"loss,omitempty"`
	Gap      float64            `json:"gap,omitempty"`
	Label    string             `json:"label,omitempty"`
}

// Scenario is a declarative description of one adverse-condition
// experiment: the cluster shape, the failure-detector configuration, the
// workload, and a timeline of injections. Scenarios are plain values —
// build them with New and the fluent methods, load them from JSON, or
// fetch named built-ins from the registry.
type Scenario struct {
	Name string `json:"name"`
	// Doc is a short human description (the registry requires one).
	Doc string `json:"doc,omitempty"`
	// N is the number of processes (paper: odd 3..11).
	N int `json:"n"`
	// Executions is the default number of consensus executions per
	// replica (RunConfig may override; New and LoadJSON start at 200).
	Executions int `json:"executions,omitempty"`
	// Gap is the initial separation between execution starts in ms (0
	// selects the replica harness's default, §4); workload events change
	// it mid-run.
	Gap float64 `json:"gap,omitempty"`
	// TimeoutT enables the real heartbeat failure detector with timeout T
	// ms; 0 selects the perfect oracle detector (which suspects exactly
	// the initially crashed processes, §2.4 class 2).
	TimeoutT float64 `json:"timeout_t,omitempty"`
	// PeriodTh is the heartbeat period (0 = 0.7·T, §5.4).
	PeriodTh float64 `json:"period_th,omitempty"`
	// InitialCrashed lists processes down from the very beginning.
	InitialCrashed []neko.ProcessID `json:"initial_crashed,omitempty"`
	// PauseEvery/PauseDur enable background whole-host pauses (netsim
	// params); nil keeps them disabled.
	PauseEvery dist.Dist `json:"-"`
	PauseDur   dist.Dist `json:"-"`
	// Events is the injection timeline.
	Events []Event `json:"events,omitempty"`
}

// defaultExecutions is a scenario's per-replica execution count when
// neither the builder nor the JSON sets one.
const defaultExecutions = 200

// New starts a scenario for n processes with the paper's defaults: the
// harness's execution gap, perfect oracle failure detector, no
// injections.
func New(name string, n int) *Scenario {
	return &Scenario{Name: name, N: n, Executions: defaultExecutions}
}

// WithDoc sets the one-line description.
func (s *Scenario) WithDoc(doc string) *Scenario { s.Doc = doc; return s }

// WithExecutions sets the default executions per replica.
func (s *Scenario) WithExecutions(k int) *Scenario { s.Executions = k; return s }

// WithHeartbeat selects the real heartbeat failure detector with timeout
// T (ms). Period 0 means 0.7·T.
func (s *Scenario) WithHeartbeat(timeoutT, periodTh float64) *Scenario {
	s.TimeoutT, s.PeriodTh = timeoutT, periodTh
	return s
}

// WithInitialCrash marks processes as crashed from the very beginning
// (§2.4 class-2 runs). Under the oracle detector they are suspected from
// the start.
func (s *Scenario) WithInitialCrash(ps ...neko.ProcessID) *Scenario {
	s.InitialCrashed = append(s.InitialCrashed, ps...)
	return s
}

// Crash schedules a crash of p at time at.
func (s *Scenario) Crash(at float64, p neko.ProcessID) *Scenario {
	return s.add(Event{Kind: KindCrash, At: at, P: p})
}

// Recover schedules the recovery of p at time at.
func (s *Scenario) Recover(at float64, p neko.ProcessID) *Scenario {
	return s.add(Event{Kind: KindRecover, At: at, P: p})
}

// Partition splits the cluster into the given groups at time at.
func (s *Scenario) Partition(at float64, groups ...[]neko.ProcessID) *Scenario {
	return s.add(Event{Kind: KindPartition, At: at, Groups: groups})
}

// Heal removes the partition at time at.
func (s *Scenario) Heal(at float64) *Scenario {
	return s.add(Event{Kind: KindHeal, At: at})
}

// DegradeLink degrades the directed link from→to during [at, until):
// frames are dropped with probability loss and survivors delayed by an
// extra sample (nil = none). until 0 leaves the rule in force forever.
func (s *Scenario) DegradeLink(at, until float64, from, to neko.ProcessID, extra dist.Dist, loss float64) *Scenario {
	return s.add(Event{Kind: KindLink, At: at, Until: until, From: from, To: to, Extra: extra, Loss: loss})
}

// PauseStorm freezes host p (0 = every host) repeatedly during
// [at, until): pause starts recur with inter-arrival every, each pause
// lasting a dur sample.
func (s *Scenario) PauseStorm(at, until float64, p neko.ProcessID, every, dur dist.Dist) *Scenario {
	return s.add(Event{Kind: KindPauseStorm, At: at, Until: until, P: p, Every: every, Dur: dur})
}

// WorkloadPhase switches the execution gap to gap ms at time at. The
// phase name is visible to netsim.OnPhase observers.
func (s *Scenario) WorkloadPhase(at float64, name string, gap float64) *Scenario {
	return s.add(Event{Kind: KindWorkload, At: at, Gap: gap, Label: name})
}

// Jitter attaches a drawn offset to the most recently added event: its
// injection instant becomes At + sample(d), drawn once per replica.
func (s *Scenario) Jitter(d dist.Dist) *Scenario {
	if len(s.Events) == 0 {
		panic("scenario: Jitter with no preceding event")
	}
	s.Events[len(s.Events)-1].AtJitter = d
	return s
}

func (s *Scenario) add(e Event) *Scenario {
	s.Events = append(s.Events, e)
	return s
}

// Validate reports the first rule the scenario breaks: its own — a name,
// well-formed events, positive workload gaps — or the replica harness's
// on the cluster, detector and base gap it describes (experiment.Check:
// n, the initially crashed ids and a correct majority, T and Th).
func (s *Scenario) Validate() error {
	_, _, err := check(s, RunConfig{})
	return err
}

// validateTimeline checks what only a scenario states: its name and its
// events, kind by kind.
func (s *Scenario) validateTimeline() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: empty name")
	}
	inRange := func(p neko.ProcessID) bool { return p >= 1 && int(p) <= s.N }
	for i, e := range s.Events {
		bad := func(format string, args ...any) error {
			return fmt.Errorf("scenario %s event %d (%s): %s", s.Name, i, e.Kind, fmt.Sprintf(format, args...))
		}
		if e.At < 0 {
			return bad("negative time %g", e.At)
		}
		switch e.Kind {
		case KindCrash, KindRecover:
			if !inRange(e.P) {
				return bad("process %d out of range 1..%d", e.P, s.N)
			}
		case KindPartition:
			if len(e.Groups) == 0 {
				return bad("no groups")
			}
			for _, g := range e.Groups {
				for _, p := range g {
					if !inRange(p) {
						return bad("process %d out of range 1..%d", p, s.N)
					}
				}
			}
		case KindHeal:
			// no fields
		case KindLink, KindLinkClear:
			if !inRange(e.From) || !inRange(e.To) {
				return bad("link %d→%d out of range 1..%d", e.From, e.To, s.N)
			}
			if e.Loss < 0 || e.Loss > 1 {
				return bad("loss %g outside [0,1]", e.Loss)
			}
			if e.Until != 0 && e.Until <= e.At {
				return bad("window [%g,%g) is empty", e.At, e.Until)
			}
		case KindPauseStorm:
			if e.P != 0 && !inRange(e.P) {
				return bad("process %d out of range 1..%d", e.P, s.N)
			}
			if e.Until <= e.At {
				return bad("window [%g,%g) is empty", e.At, e.Until)
			}
			if e.Every == nil || e.Dur == nil {
				return bad("needs Every and Dur distributions")
			}
			if e.Every.Mean() <= 0 {
				return bad("Every must have positive mean")
			}
		case KindWorkload:
			if e.Gap <= 0 {
				return bad("non-positive gap %g", e.Gap)
			}
		default:
			return bad("unknown kind")
		}
	}
	return nil
}
