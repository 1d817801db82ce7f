package consensus

import (
	"fmt"
	"testing"

	"ctsan/internal/dist"
	"ctsan/internal/fd"
	"ctsan/internal/neko"
	"ctsan/internal/netsim"
	"ctsan/internal/rng"
)

// harness wires n consensus engines over a quiet emulated cluster.
type harness struct {
	t       *testing.T
	n       int
	cluster *netsim.Cluster
	engines []*Engine // index 1..n
	decided map[neko.ProcessID]Decision
	aborted map[neko.ProcessID]bool
}

// quietParams removes all stochastic noise for deterministic tests.
func quietParams(n int) netsim.Params {
	return netsim.Params{
		N:            n,
		TSend:        dist.Det(0.025),
		TReceive:     dist.Det(0.025),
		TWire:        dist.Det(0.09),
		Tail:         dist.Det(0),
		GridProb:     0,
		ThreadJitter: dist.Det(0),
		KernelLate:   dist.Det(0),
		WakeTail:     dist.Det(0),
		ClockSkew:    dist.Det(0),
	}
}

// newHarness builds the cluster; detFor selects each process's failure
// detector (nil means a trusting oracle).
func newHarness(t *testing.T, params netsim.Params, opts Options, detFor func(i int, stack *neko.Stack) neko.FailureDetector) *harness {
	t.Helper()
	c, err := netsim.New(params, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{
		t:       t,
		n:       params.N,
		cluster: c,
		engines: make([]*Engine, params.N+1),
		decided: make(map[neko.ProcessID]Decision),
		aborted: make(map[neko.ProcessID]bool),
	}
	for i := 1; i <= params.N; i++ {
		stack := neko.NewStack(c.Context(neko.ProcessID(i)))
		var det neko.FailureDetector
		if detFor != nil {
			det = detFor(i, stack)
		}
		if det == nil {
			det = fd.NewOracle()
		}
		h.engines[i] = NewEngine(stack, det, opts)
		c.Attach(neko.ProcessID(i), stack)
	}
	c.Start()
	return h
}

// propose starts instance cid on every process in crashedless; value = id.
func (h *harness) propose(cid uint64, skip map[int]bool) {
	for i := 1; i <= h.n; i++ {
		if skip[i] {
			continue
		}
		i := i
		id := neko.ProcessID(i)
		h.cluster.StartAt(id, 1.0, func() {
			h.engines[i].Propose(cid, int64(i), func(d Decision) {
				h.decided[id] = d
			}, func() {
				h.aborted[id] = true
			})
		})
	}
}

// checkAgreementValidity asserts the standard consensus properties over
// the processes that decided.
func (h *harness) checkAgreementValidity(proposed map[int64]bool) {
	h.t.Helper()
	var val int64
	first := true
	for p, d := range h.decided {
		if first {
			val = d.Val
			first = false
		} else if d.Val != val {
			h.t.Fatalf("agreement violated: p%d decided %d, others %d", p, d.Val, val)
		}
		if !proposed[d.Val] {
			h.t.Fatalf("validity violated: decided %d was never proposed", d.Val)
		}
	}
}

func allProposed(n int, skip map[int]bool) map[int64]bool {
	m := make(map[int64]bool)
	for i := 1; i <= n; i++ {
		if !skip[i] {
			m[int64(i)] = true
		}
	}
	return m
}

func TestFailureFreeRunDecidesRoundOne(t *testing.T) {
	for _, n := range []int{2, 3, 5, 7} {
		h := newHarness(t, quietParams(n), Options{}, nil)
		h.propose(1, nil)
		h.cluster.RunUntil(100)
		if len(h.decided) != n {
			t.Fatalf("n=%d: %d/%d processes decided", n, len(h.decided), n)
		}
		h.checkAgreementValidity(allProposed(n, nil))
		for p, d := range h.decided {
			if p == 1 && d.Round != 1 {
				t.Fatalf("n=%d: coordinator decided in round %d, want 1", n, d.Round)
			}
		}
		// The coordinator's estimate (its own) carries the highest
		// timestamp only at round 1 start; the decided value must be one
		// of the early estimates. With a quiet network, p1 proposes its
		// own value.
		if h.decided[1].Val != 1 {
			t.Fatalf("n=%d: decided %d, want the coordinator's value 1", n, h.decided[1].Val)
		}
	}
}

func TestCoordinatorCrashTwoRounds(t *testing.T) {
	params := quietParams(5)
	params.Crashed = []neko.ProcessID{1}
	h := newHarness(t, params, Options{}, func(i int, stack *neko.Stack) neko.FailureDetector {
		return fd.NewOracle(1)
	})
	h.propose(1, map[int]bool{1: true})
	h.cluster.RunUntil(100)
	if len(h.decided) != 4 {
		t.Fatalf("%d/4 correct processes decided", len(h.decided))
	}
	h.checkAgreementValidity(allProposed(5, map[int]bool{1: true}))
	if d := h.decided[2]; d.Round != 2 {
		t.Fatalf("round-2 coordinator decided in round %d, want 2", d.Round)
	}
}

func TestParticipantCrashStillDecides(t *testing.T) {
	params := quietParams(5)
	params.Crashed = []neko.ProcessID{3}
	h := newHarness(t, params, Options{}, func(i int, stack *neko.Stack) neko.FailureDetector {
		return fd.NewOracle(3)
	})
	h.propose(1, map[int]bool{3: true})
	h.cluster.RunUntil(100)
	if len(h.decided) != 4 {
		t.Fatalf("%d/4 decided", len(h.decided))
	}
	if d := h.decided[1]; d.Round != 1 {
		t.Fatalf("decided in round %d, want 1 (§5.3: participant crash finishes in one round)", d.Round)
	}
}

func TestTwoCrashesWithinMajorityTolerance(t *testing.T) {
	params := quietParams(5) // majority 3, tolerates 2 crashes
	params.Crashed = []neko.ProcessID{1, 2}
	h := newHarness(t, params, Options{}, func(i int, stack *neko.Stack) neko.FailureDetector {
		return fd.NewOracle(1, 2)
	})
	skip := map[int]bool{1: true, 2: true}
	h.propose(1, skip)
	h.cluster.RunUntil(200)
	if len(h.decided) != 3 {
		t.Fatalf("%d/3 decided", len(h.decided))
	}
	if d := h.decided[3]; d.Round != 3 {
		t.Fatalf("decided in round %d, want 3 (two crashed coordinators skipped)", d.Round)
	}
	h.checkAgreementValidity(allProposed(5, skip))
}

func TestTimestampRule(t *testing.T) {
	// A process that adopted a proposal in round 1 carries it with
	// timestamp 1; if round 1's coordinator crashes after partial success
	// the next coordinator must prefer the adopted value. We emulate this
	// by running two instances: the adoption path is internal, so instead
	// we assert the decided value of a crashed-coordinator run is the one
	// the round-2 coordinator picked from the highest timestamp available.
	params := quietParams(3)
	params.Crashed = []neko.ProcessID{1}
	h := newHarness(t, params, Options{}, func(i int, stack *neko.Stack) neko.FailureDetector {
		return fd.NewOracle(1)
	})
	h.propose(1, map[int]bool{1: true})
	h.cluster.RunUntil(100)
	h.checkAgreementValidity(allProposed(3, map[int]bool{1: true}))
	if h.decided[2].Val != 2 {
		t.Fatalf("decided %d, want round-2 coordinator's own estimate 2 (all ts equal)", h.decided[2].Val)
	}
}

func TestMaxRoundsAborts(t *testing.T) {
	// Everyone suspects everyone: rounds fail until the guard trips.
	params := quietParams(3)
	h := newHarness(t, params, Options{MaxRounds: 7}, func(i int, stack *neko.Stack) neko.FailureDetector {
		return fd.NewOracle(1, 2, 3) // suspects all, including live coordinators
	})
	h.propose(1, nil)
	h.cluster.RunUntil(500)
	if len(h.decided) != 0 {
		t.Fatalf("decided despite everyone suspecting everyone: %+v", h.decided)
	}
	if len(h.aborted) != 3 {
		t.Fatalf("%d/3 aborted", len(h.aborted))
	}
}

func TestSequentialInstances(t *testing.T) {
	h := newHarness(t, quietParams(3), Options{}, nil)
	for k := uint64(0); k < 5; k++ {
		h.decided = make(map[neko.ProcessID]Decision)
		for i := 1; i <= 3; i++ {
			i := i
			id := neko.ProcessID(i)
			k := k
			h.cluster.StartAt(id, float64(10*k)+1, func() {
				h.engines[i].Propose(k, int64(100*int(k)+i), func(d Decision) {
					h.decided[id] = d
				}, nil)
			})
		}
		h.cluster.RunUntil(float64(10*k) + 9)
		if len(h.decided) != 3 {
			t.Fatalf("instance %d: %d/3 decided", k, len(h.decided))
		}
		want := int64(100*int(k) + 1)
		if h.decided[1].Val != want {
			t.Fatalf("instance %d decided %d, want %d", k, h.decided[1].Val, want)
		}
		for i := 1; i <= 3; i++ {
			h.engines[i].Forget(k)
		}
	}
}

// TestRouteDropsLateBuffersEarly pins route's two slow paths: a straggler
// for an instance the engine has forgotten is dropped (it used to be
// parked in pending until Reset — one buffer per finished instance), and
// a message for an instance not started here yet is buffered and
// replayed by Propose.
func TestRouteDropsLateBuffersEarly(t *testing.T) {
	h := newHarness(t, quietParams(3), Options{}, nil)
	e := h.engines[2]
	e.Propose(0, 2, nil, nil)
	e.Forget(0)

	late := neko.Message{From: 3, To: 2, Type: MsgAck, Payload: neko.Payload{Kind: neko.PayloadAck, Cid: 0, Round: 1, OK: true}}
	e.route(&late)
	if len(e.pending) != 0 {
		t.Fatalf("late ack for forgotten instance 0 was buffered: %v", e.pending)
	}

	early := neko.Message{From: 1, To: 2, Type: MsgDecide, Payload: neko.Payload{Kind: neko.PayloadDecide, Cid: 1, Val: 77}}
	e.route(&early)
	if len(e.pending[1]) != 1 {
		t.Fatalf("early decide for instance 1 not buffered: %v", e.pending)
	}
	var got Decision
	e.Propose(1, 5, func(d Decision) { got = d }, nil)
	if got.Val != 77 || len(e.pending) != 0 {
		t.Fatalf("early decide not replayed by Propose: decision %+v, pending %v", got, e.pending)
	}

	// Reset starts a new campaign replica: ids begin again from 0, so
	// instance 0 is a future instance once more.
	e.Reset()
	e.route(&late)
	if len(e.pending[0]) != 1 {
		t.Fatalf("after Reset a message for instance 0 must be buffered: %v", e.pending)
	}
}

func TestDuplicateProposePanics(t *testing.T) {
	h := newHarness(t, quietParams(3), Options{}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Propose did not panic")
		}
	}()
	h.engines[1].Propose(9, 1, nil, nil)
	h.engines[1].Propose(9, 1, nil, nil)
}

func TestCoordinatorHelpers(t *testing.T) {
	h := newHarness(t, quietParams(5), Options{}, nil)
	e := h.engines[1]
	if e.maj != 3 {
		t.Fatalf("majority = %d", e.maj)
	}
	for _, c := range []struct {
		round int
		want  neko.ProcessID
	}{{1, 1}, {2, 2}, {5, 5}, {6, 1}, {11, 1}, {7, 2}} {
		if got := e.Coordinator(c.round); got != c.want {
			t.Errorf("Coordinator(%d) = %d, want %d", c.round, got, c.want)
		}
	}
}

// TestSafetyUnderChaoticFD: with an adversarially flapping failure
// detector, liveness may suffer but agreement and validity must hold.
// The chaotic FD claims random suspicions on every query.
type chaoticFD struct {
	r *rng.Stream
	n int
}

func (c *chaoticFD) Suspects(q neko.ProcessID) bool      { return c.r.Float64() < 0.4 }
func (c *chaoticFD) OnChange(func(neko.ProcessID, bool)) {}
func (c *chaoticFD) String() string                      { return fmt.Sprintf("chaotic(%d)", c.n) }

func TestSafetyUnderChaoticFD(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		params := quietParams(5)
		h := newHarness(t, params, Options{MaxRounds: 200}, func(i int, stack *neko.Stack) neko.FailureDetector {
			return &chaoticFD{r: rng.New(seed*31 + uint64(i)), n: i}
		})
		h.propose(1, nil)
		h.cluster.RunUntil(2000)
		// Some runs decide, some abort; whoever decides must agree.
		h.checkAgreementValidity(allProposed(5, nil))
	}
}
