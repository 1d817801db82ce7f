package fd

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"ctsan/internal/dist"
	"ctsan/internal/neko"
	"ctsan/internal/netsim"
	"ctsan/internal/rng"
)

// quietParams returns a 2-host cluster configuration with no scheduler
// noise, so failure-detector behaviour is exactly predictable.
func quietParams(n int) netsim.Params {
	return netsim.Params{
		N:            n,
		TSend:        dist.Det(0.01),
		TReceive:     dist.Det(0.01),
		TWire:        dist.Det(0.01),
		GridProb:     0,
		ThreadJitter: dist.Det(0),
		KernelLate:   dist.Det(0),
		WakeTail:     dist.Det(0),
		ClockSkew:    dist.Det(0),
	}
}

// buildFDCluster wires heartbeat detectors on every process.
func buildFDCluster(t *testing.T, params netsim.Params, timeout, period float64) (*netsim.Cluster, []*Heartbeat, *History) {
	t.Helper()
	c, err := netsim.New(params, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	hist := &History{Keep: true}
	var hbs []*Heartbeat
	for i := 1; i <= params.N; i++ {
		stack := neko.NewStack(c.Context(neko.ProcessID(i)))
		hbs = append(hbs, NewHeartbeat(stack, timeout, period, hist))
		c.Attach(neko.ProcessID(i), stack)
	}
	c.Start()
	return c, hbs, hist
}

func TestNoSuspicionsInQuietCluster(t *testing.T) {
	c, hbs, hist := buildFDCluster(t, quietParams(3), 10, 7)
	c.RunUntil(500)
	if evs := hist.Events(); len(evs) != 0 {
		t.Fatalf("quiet cluster produced %d FD transitions", len(evs))
	}
	for _, hb := range hbs {
		for q := neko.ProcessID(1); q <= 3; q++ {
			if hb.Suspects(q) {
				t.Fatalf("spurious suspicion of p%d", q)
			}
		}
	}
}

func TestCrashDetectedAndPermanent(t *testing.T) {
	c, hbs, hist := buildFDCluster(t, quietParams(3), 10, 7)
	const crashAt = 100.0
	c.CrashAt(2, crashAt)
	c.RunUntil(500)
	if !hbs[0].Suspects(2) || !hbs[2].Suspects(2) {
		t.Fatal("crashed process not suspected (completeness)")
	}
	tds := DetectionTimes(hist, 2, crashAt, 3)
	for _, p := range []int{1, 3} {
		td := tds[p]
		if math.IsInf(td, 1) {
			t.Fatalf("p%d never permanently suspected the crashed process", p)
		}
		// Detection needs at most T + T_h + slack.
		if td > 10+7+1 {
			t.Fatalf("p%d detection time %v too large", p, td)
		}
	}
}

func TestAnyMessageResetsTimer(t *testing.T) {
	// p2 sends no heartbeats (period beyond horizon) but sends an
	// application message before the timeout; p1 must not suspect it
	// until T after that message. The message carries no kind, so no
	// handler owns it: only the detector's tap sees it.
	params := quietParams(2)
	c, err := netsim.New(params, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	hist := &History{Keep: true}
	s1 := neko.NewStack(c.Context(1))
	hb1 := NewHeartbeat(s1, 20, 1e6, hist)
	c.Attach(1, s1)
	s2 := neko.NewStack(c.Context(2))
	ctx2 := c.Context(2)
	c.Attach(2, s2)
	c.Start()
	// App message from p2 at t=15 (before the t=20 expiry).
	c.StartAt(2, 15, func() { ctx2.Send(neko.Message{To: 1}) })
	c.RunUntil(30)
	if hb1.Suspects(2) {
		t.Fatal("suspected despite fresh application message (§2.2)")
	}
	c.RunUntil(15 + 20 + 1)
	if !hb1.Suspects(2) {
		t.Fatal("not suspected T after the last message")
	}
	evs := hist.Events()
	if len(evs) != 1 || !evs[0].Suspected || evs[0].At < 35 {
		t.Fatalf("unexpected history %+v", evs)
	}
}

func TestSuspicionClearsOnMessage(t *testing.T) {
	params := quietParams(2)
	c, err := netsim.New(params, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	s1 := neko.NewStack(c.Context(1))
	hb1 := NewHeartbeat(s1, 10, 1e6, nil) // p1 monitors, never beats back fast
	c.Attach(1, s1)
	s2 := neko.NewStack(c.Context(2))
	ctx2 := c.Context(2)
	c.Attach(2, s2)
	var changes []bool
	hb1.OnChange(func(q neko.ProcessID, suspected bool) {
		if q == 2 {
			changes = append(changes, suspected)
		}
	})
	c.Start()
	c.StartAt(2, 25, func() { ctx2.Send(neko.Message{To: 1}) })
	c.RunUntil(50)
	if len(changes) < 2 || changes[0] != true || changes[1] != false {
		t.Fatalf("suspicion changes %v, want suspect then trust", changes)
	}
}

func TestOracle(t *testing.T) {
	o := NewOracle(2, 5)
	if !o.Suspects(2) || !o.Suspects(5) || o.Suspects(1) {
		t.Fatal("oracle suspicion set wrong")
	}
	o.OnChange(func(neko.ProcessID, bool) { t.Fatal("oracle must never notify") })
}

func TestNewHeartbeatValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive timeout accepted")
		}
	}()
	c, _ := netsim.New(quietParams(2), rng.New(1))
	NewHeartbeat(neko.NewStack(c.Context(1)), 0, 1, nil)
}

// TestEstimateQoSHandComputed checks the §4 equations on a synthetic
// history: one pair, two mistakes of 1 ms each over 100 ms.
func TestEstimateQoSHandComputed(t *testing.T) {
	h := &History{}
	h.Record(1, 2, true, 10)
	h.Record(1, 2, false, 11)
	h.Record(1, 2, true, 60)
	h.Record(1, 2, false, 61)
	q := EstimateQoS(h, 100, 2)
	// Pair (1,2): nTS+nST = 4 → T_MR = 2·100/4 = 50; T_S = 2 →
	// T_M = 50·2/100 = 1. Pair (2,1): mistake-free → censored 2·T_exp.
	if q.Pairs != 2 || q.MistakeFree != 1 {
		t.Fatalf("pairs=%d mistakeFree=%d", q.Pairs, q.MistakeFree)
	}
	wantTMR := (50.0 + 200.0) / 2
	if math.Abs(q.TMR-wantTMR) > 1e-9 {
		t.Fatalf("TMR = %v, want %v", q.TMR, wantTMR)
	}
	if math.Abs(q.TM-0.5) > 1e-9 { // (1 + 0)/2
		t.Fatalf("TM = %v, want 0.5", q.TM)
	}
}

// TestEstimateQoSOpenSuspicion: a suspicion still standing at the end of
// the experiment counts its elapsed time.
func TestEstimateQoSOpenSuspicion(t *testing.T) {
	h := &History{Keep: true}
	h.Record(1, 2, true, 90) // suspected through t=100
	q := EstimateQoS(h, 100, 2)
	// nTS+nST = 1 → TMR = 200; TS = 10 → TM = 200·10/100 = 20.
	found := false
	for _, e := range h.Events() {
		if e.Suspected {
			found = true
		}
	}
	if !found {
		t.Fatal("history lost the event")
	}
	wantTMR := (200.0 + 200.0) / 2
	wantTM := (20.0 + 0.0) / 2
	if math.Abs(q.TMR-wantTMR) > 1e-9 || math.Abs(q.TM-wantTM) > 1e-9 {
		t.Fatalf("TMR=%v TM=%v, want %v/%v", q.TMR, q.TM, wantTMR, wantTM)
	}
}

func TestEstimateQoSIgnoresDuplicateTransitions(t *testing.T) {
	h := &History{}
	h.Record(1, 2, true, 10)
	h.Record(1, 2, true, 12) // duplicate suspect; must not double-count
	h.Record(1, 2, false, 14)
	q := EstimateQoS(h, 100, 2)
	if q.Transitions != 2 {
		t.Fatalf("transitions = %d, want 2", q.Transitions)
	}
}

func TestHeartbeatStop(t *testing.T) {
	c, hbs, hist := buildFDCluster(t, quietParams(2), 5, 3)
	c.RunUntil(20)
	before := c.Delivered()
	for _, hb := range hbs {
		hb.Stop()
	}
	c.RunUntil(100)
	// In-flight heartbeats may still land; after that, traffic must cease.
	c.RunUntil(200)
	after := c.Delivered()
	if after > before+uint64(2) {
		t.Fatalf("heartbeats continued after Stop: %d -> %d", before, after)
	}
	_ = hist
}

// referenceQoS is the fold EstimateQoS replaced: every transition kept,
// copied, stable-sorted by time, and folded per pair through a map. The
// online fold must reproduce it bit for bit on any transition sequence a
// detector can record — one where each pair's times never decrease.
func referenceQoS(evs []Transition, texp float64, n int) QoS {
	type pairKey struct{ p, q neko.ProcessID }
	evs = append([]Transition(nil), evs...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	type pairState struct {
		nTS, nST  int
		suspTime  float64
		suspSince float64
		suspected bool
	}
	states := make(map[pairKey]*pairState)
	for p := neko.ProcessID(1); int(p) <= n; p++ {
		for q := neko.ProcessID(1); int(q) <= n; q++ {
			if p != q {
				states[pairKey{p, q}] = &pairState{}
			}
		}
	}
	for _, e := range evs {
		st, ok := states[pairKey{e.P, e.Q}]
		if !ok {
			continue
		}
		if e.Suspected && !st.suspected {
			st.nTS++
			st.suspected = true
			st.suspSince = e.At
		} else if !e.Suspected && st.suspected {
			st.nST++
			st.suspected = false
			st.suspTime += e.At - st.suspSince
		}
	}
	var out QoS
	var sumTMR, sumTM float64
	for p := neko.ProcessID(1); int(p) <= n; p++ {
		for q := neko.ProcessID(1); int(q) <= n; q++ {
			if p == q {
				continue
			}
			st := states[pairKey{p, q}]
			out.Pairs++
			if st.suspected {
				st.suspTime += texp - st.suspSince
			}
			transitions := st.nTS + st.nST
			out.Transitions += transitions
			if transitions == 0 {
				out.MistakeFree++
				sumTMR += 2 * texp
				continue
			}
			tmr := 2 * texp / float64(transitions)
			tm := tmr * st.suspTime / texp
			sumTMR += tmr
			sumTM += tm
		}
	}
	if out.Pairs > 0 {
		out.TMR = sumTMR / float64(out.Pairs)
		out.TM = sumTM / float64(out.Pairs)
	}
	return out
}

// generatedTransitions records a random transition sequence the way a
// cluster of heartbeat detectors would: observer p records (p, q) at its
// own clock, which only moves forward — often not at all, so equal times
// are common within a pair and across pairs. Ids range over -1..n+2, so
// out-of-range observers and subjects and p == q all occur, and repeated
// states (suspect while suspected) occur as often as real transitions.
// texp is the last recorded instant or a little later, so suspicions left
// open at the end are sometimes zero-length.
func generatedTransitions(r *rand.Rand, h *History) (evs []Transition, texp float64, n int) {
	n = 2 + r.IntN(6)
	clock := make(map[neko.ProcessID]float64)
	steps := []float64{0, 0, 0.25, 1, 3.5}
	for k, m := 0, r.IntN(400); k < m; k++ {
		p := neko.ProcessID(r.IntN(n+4) - 1)
		q := neko.ProcessID(r.IntN(n+4) - 1)
		clock[p] += steps[r.IntN(len(steps))]
		e := Transition{P: p, Q: q, Suspected: r.IntN(2) == 0, At: clock[p]}
		h.Record(e.P, e.Q, e.Suspected, e.At)
		evs = append(evs, e)
		texp = max(texp, e.At)
	}
	return evs, texp + steps[r.IntN(len(steps))], n
}

// TestOnlineFoldMatchesSortedReference: over generated sequences —
// ties, out-of-range ids, repeated states, suspicions open at texp — the
// per-pair fold History keeps gives the sorted reference's QoS bit for
// bit, with or without Keep, fresh or after a Reset.
func TestOnlineFoldMatchesSortedReference(t *testing.T) {
	r := rand.New(rand.NewPCG(17, 0))
	reused := &History{}
	for trial := 0; trial < 500; trial++ {
		kept := &History{Keep: true}
		evs, texp, n := generatedTransitions(r, kept)
		reused.Reset()
		for _, e := range evs {
			reused.Record(e.P, e.Q, e.Suspected, e.At)
		}
		want := referenceQoS(evs, texp, n)
		for _, h := range []*History{kept, reused} {
			if got := EstimateQoS(h, texp, n); got != want {
				t.Fatalf("trial %d (n=%d, %d transitions, keep=%v): online fold %+v, sorted reference %+v",
					trial, n, len(evs), h.Keep, got, want)
			}
		}
		if got := kept.Events(); len(got) != len(evs) || (len(evs) > 0 && got[len(got)-1] != evs[len(evs)-1]) {
			t.Fatalf("trial %d: kept %d transitions, want %d", trial, len(got), len(evs))
		}
	}
}

// TestEventsNeedKeep: a history that folds only cannot pretend to hold
// the transitions it never kept.
func TestEventsNeedKeep(t *testing.T) {
	h := &History{}
	h.Record(1, 2, true, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Events of a fold-only history did not panic")
		}
	}()
	h.Events()
}
