package shard

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"ctsan/campaign"
)

func TestParseRange(t *testing.T) {
	r, err := ParseRange("3:7")
	if err != nil || r != (Range{3, 7}) {
		t.Fatalf("ParseRange(3:7) = %v, %v", r, err)
	}
	if r.String() != "3:7" {
		t.Fatalf("round trip gave %q", r.String())
	}
	for _, bad := range []string{"", "3", "a:b", "5:5", "7:3", "-1:2", "0:5junk", "0:5:9", "0:5 7"} {
		if _, err := ParseRange(bad); err == nil {
			t.Errorf("ParseRange(%q) succeeded", bad)
		}
	}
}

// gridSize is the largest grid the ledger tests use.
const gridSize = 12

// grid is a frozen study's point hashes with, per index, the record line
// an executor would checkpoint and the JSONL line of the Result inside it.
type grid struct {
	hashes  []string
	lines   [][]byte
	results [][]byte
}

// fixtures executes one tiny gridSize-point study at two seeds, once per
// process: own is the grid under test, foreign the same spec frozen at
// another seed — well-formed records of a different study.
var fixtures = sync.OnceValues(func() (own, foreign grid) {
	build := func(seed uint64) grid {
		study := campaign.NewStudy("ledger-test")
		for i := 0; i < gridSize; i++ {
			study.Add(campaign.SANPoint{N: 3, Replicas: 2})
		}
		frozen, err := campaign.Frozen(study, campaign.WithSeed(seed))
		if err != nil {
			panic(err)
		}
		g := grid{}
		if g.hashes, err = campaign.StudyPointHashes(frozen); err != nil {
			panic(err)
		}
		results, err := campaign.RunCollect(context.Background(), frozen, campaign.WithWorkers(1))
		if err != nil {
			panic(err)
		}
		for i, res := range results {
			line, err := campaign.EncodeShardRecord(g.hashes[i], res)
			if err != nil {
				panic(err)
			}
			rec, err := campaign.DecodeShardRecord(line)
			if err != nil {
				panic(err)
			}
			g.lines = append(g.lines, line)
			g.results = append(g.results, append(rec.Result, '\n'))
		}
		return g
	}
	return build(1), build(2)
})

// The four kinds of line a batch can carry for an index.
const (
	lineValid = iota
	lineOmitted
	lineCorrupt // CRC no longer matches the body
	lineForeign // a well-formed record of another study
)

func (g grid) line(foreign grid, i, kind int) []byte {
	switch kind {
	case lineValid:
		return g.lines[i]
	case lineCorrupt:
		bad := bytes.Clone(g.lines[i])
		bad[len(bad)/2] ^= 0x20
		return bad
	case lineForeign:
		return foreign.lines[i]
	}
	return nil
}

// ledgerModel is the reference the property test checks the Ledger
// against after every operation.
type ledgerModel struct {
	t       testing.TB
	n       int
	own     grid
	l       *Ledger
	now     time.Time
	ttl     time.Duration
	settled []bool
	// leases mirrors the live leases; all remembers every ID ever granted
	// so late batches can name an expired one.
	leases map[string]Lease
	all    []string
	// emitted is how many folded lines the model has read (fold).
	emitted  int
	canceled bool
	size     int
}

func newLedgerModel(t testing.TB, n int) *ledgerModel {
	own, _ := fixtures()
	m := &ledgerModel{t: t, n: n, own: own, now: time.Unix(1_000_000, 0), ttl: 10 * time.Second,
		settled: make([]bool, n), leases: map[string]Lease{}, size: 1}
	m.l = NewLedger(own.hashes[:n], m.ttl, func(int, int) int { return m.size })
	return m
}

// fold reads the lines folded since the last read: in order, each the
// line of the record's own result, and the replay from 0 is the same
// lines as they were read.
func (m *ledgerModel) fold() {
	lines, _ := m.l.Lines(m.emitted)
	for k, line := range lines {
		if i := m.emitted + k; !bytes.Equal(line, m.own.results[i]) {
			m.t.Fatalf("Lines: line %d is not the line of the record's result", i)
		}
	}
	m.emitted += len(lines)
	all, _ := m.l.Lines(0)
	if len(all) != m.emitted || cap(all) != m.emitted {
		m.t.Fatalf("Lines(0) holds %d lines (cap %d), the fold %d", len(all), cap(all), m.emitted)
	}
	for i, line := range all {
		if !bytes.Equal(line, m.own.results[i]) {
			m.t.Fatalf("Lines(0): line %d changed since it folded", i)
		}
	}
}

// expire mirrors expireLocked: leases at or past their deadline end.
func (m *ledgerModel) expire() {
	for id, o := range m.leases {
		if !m.now.Before(o.Deadline) {
			delete(m.leases, id)
		}
	}
}

func (m *ledgerModel) unsettled(r Range) int {
	holes := 0
	for i := r.Start; i < r.End; i++ {
		if !m.settled[i] {
			holes++
		}
	}
	return holes
}

// pending reports whether point i is unsettled and no live lease of the
// model covers it.
func (m *ledgerModel) pending(i int) bool {
	if m.settled[i] {
		return false
	}
	for _, o := range m.leases {
		if i >= o.Start && i < o.End {
			return false
		}
	}
	return true
}

func (m *ledgerModel) grant(holder string) *Lease {
	o, done := m.l.Grant(m.now, holder)
	if m.canceled || m.unsettled(Range{0, m.n}) == 0 {
		if !done || o != nil {
			m.t.Fatalf("Grant on a finished ledger = %+v, done %v; want done", o, done)
		}
		return nil
	}
	m.expire()
	// The grant the model expects: the maximal pending run from the
	// lowest pending index, cut at size.
	want := Range{Start: 0, End: m.n}
	for want.Start < m.n && !m.pending(want.Start) {
		want.Start++
	}
	for end := want.Start; end < m.n; end++ {
		if end-want.Start == m.size || !m.pending(end) {
			want.End = end
			break
		}
	}
	switch {
	case done:
		m.t.Fatalf("Grant said done with %d points unsettled", m.unsettled(Range{0, m.n}))
	case o == nil:
		if want.Start < m.n {
			m.t.Fatalf("Grant returned neither lease nor done, but point %d is pending", want.Start)
		}
		return nil
	}
	if o.Range != want || want.Len() == 0 {
		m.t.Fatalf("Grant of %s with size %d, want the lowest pending run cut at size, %s", o.Range, m.size, want)
	}
	if !o.Deadline.Equal(m.now.Add(m.ttl)) || o.Attempt < 1 {
		m.t.Fatalf("Grant: %+v at %v", o, m.now)
	}
	m.leases[o.ID] = *o
	m.all = append(m.all, o.ID)
	return o
}

// deliver sends lines under lease id ("" = Preload) and checks the
// Completion against the model.
func (m *ledgerModel) deliver(id string, lines [][]byte, kinds []int, indices []int) {
	want := Completion{}
	for k, kind := range kinds {
		switch {
		case kind == lineOmitted:
		case kind != lineValid:
			want.Rejected++
		case m.settled[indices[k]]:
			want.Duplicate++
		default:
			m.settled[indices[k]] = true
			want.Accepted = append(want.Accepted, Record{Index: indices[k]})
		}
	}
	var got Completion
	if id == "" {
		got = m.l.Preload(lines)
	} else {
		got = m.l.Complete(m.now, id, lines)
		if o, live := m.leases[id]; live {
			delete(m.leases, id)
			if got.Lease == nil || got.Lease.ID != id || got.Holes != m.unsettled(o.Range) {
				m.t.Fatalf("Complete(%s %s): lease %+v holes %d, want %d holes", id, o.Range, got.Lease, got.Holes, m.unsettled(o.Range))
			}
		} else if got.Lease != nil {
			m.t.Fatalf("Complete(%s) answered a lease the model holds expired or unknown: %+v", id, got.Lease)
		}
		m.expire()
	}
	m.fold()
	if len(got.Accepted) != len(want.Accepted) || got.Rejected != want.Rejected || got.Duplicate != want.Duplicate {
		m.t.Fatalf("delivery under %q: accepted %d rejected %d duplicate %d, want %d/%d/%d",
			id, len(got.Accepted), got.Rejected, got.Duplicate, len(want.Accepted), want.Rejected, want.Duplicate)
	}
	for k, rec := range got.Accepted {
		if rec.Index != want.Accepted[k].Index || !bytes.Equal(rec.Line, m.own.lines[rec.Index]) {
			m.t.Fatalf("accepted record %d is index %d, want %d with its own line", k, rec.Index, want.Accepted[k].Index)
		}
	}
	if got.Emitted != m.emitted || got.Done != (m.emitted == m.n) {
		m.t.Fatalf("Completion says emitted %d done %v; Lines hold %d of %d", got.Emitted, got.Done, m.emitted, m.n)
	}
}

// check compares the ledger's state with the model's: the three states
// partition the grid, the fold cursor is the settled prefix, and Done is
// closed exactly when nothing remains.
func (m *ledgerModel) check() {
	m.fold()
	l := m.l
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.leases) != len(m.leases) {
		m.t.Fatalf("ledger holds %d leases, model %d", len(l.leases), len(m.leases))
	}
	prefix := 0
	for prefix < m.n && m.settled[prefix] {
		prefix++
	}
	if l.flushed != prefix || m.emitted != prefix {
		m.t.Fatalf("fold cursor %d, emitted %d, settled prefix %d", l.flushed, m.emitted, prefix)
	}
	for id := range l.leases {
		if _, ok := m.leases[id]; !ok {
			m.t.Fatalf("ledger holds lease %s the model does not", id)
		}
	}
	pending := 0
	for i := 0; i < m.n; i++ {
		leased := 0
		for _, o := range l.leases {
			if i >= o.Start && i < o.End {
				leased++
			}
		}
		if l.settled(i) != m.settled[i] {
			m.t.Fatalf("point %d: ledger settled=%v, model %v", i, l.settled(i), m.settled[i])
		}
		if l.leased[i] != (leased > 0) || leased > 1 {
			m.t.Fatalf("point %d: leased=%v, covered by %d live leases", i, l.leased[i], leased)
		}
		if m.pending(i) {
			pending++
			if i < l.front {
				m.t.Fatalf("point %d is pending below the front %d", i, l.front)
			}
		}
	}
	if l.pending != pending {
		m.t.Fatalf("ledger counts %d points pending, model %d", l.pending, pending)
	}
	select {
	case <-l.done:
		if prefix != m.n {
			m.t.Fatalf("Done closed with %d of %d points folded", prefix, m.n)
		}
	default:
		if prefix == m.n {
			m.t.Fatal("everything folded but Done is open")
		}
	}
}

// runLedgerOps interprets ops as an operation stream against a fresh
// ledger, checking the model after each one, then drains the ledger and
// requires it to finish. The first byte sizes the grid.
func runLedgerOps(t testing.TB, ops []byte) {
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	_, foreign := fixtures()
	m := newLedgerModel(t, next()%gridSize+1)
	m.check()
	// batch builds the lines for indices [a, b), two bits of mask per
	// index choosing the kind; a set dup bit sends every line twice.
	batch := func(a, b, mask int, dup bool) (lines [][]byte, kinds, indices []int) {
		for i := a; i < b; i++ {
			kind := mask >> (2 * ((i - a) % 4)) & 3
			for rep := 0; rep < 1+btoi(dup); rep++ {
				kinds, indices = append(kinds, kind), append(indices, i)
				if kind != lineOmitted {
					lines = append(lines, m.own.line(foreign, i, kind))
				}
			}
		}
		return lines, kinds, indices
	}
	for len(ops) > 0 {
		// A reader caught up with the fold waits on wait: it must open
		// exactly when this operation advances the fold or cancels.
		before, canceled := m.emitted, false
		_, wait := m.l.Lines(before)
		switch op := next(); op % 8 {
		case 0, 1: // grant
			m.size = next()%5 + 1
			m.grant(fmt.Sprintf("h%d", op%3))
		case 2: // renew some lease, live or not
			if len(m.all) > 0 {
				id := m.all[next()%len(m.all)]
				deadline, ok := m.l.Renew(m.now, id)
				m.expire()
				o, live := m.leases[id]
				if ok != live || (ok && !deadline.Equal(m.now.Add(m.ttl))) {
					m.t.Fatalf("Renew(%s) = %v, %v; model live=%v", id, deadline, ok, live)
				}
				if live {
					o.Deadline = deadline
					m.leases[id] = o
				}
			}
		case 3: // the clock moves, sometimes past the TTL
			m.now = m.now.Add(time.Duration(next()%5) * m.ttl / 3)
		case 4: // tick
			m.l.Tick(m.now)
			m.expire()
		case 5, 6: // a holder answers some lease it was granted, live or expired
			if len(m.all) > 0 {
				id := m.all[next()%len(m.all)]
				r := Range{}
				if o, live := m.leases[id]; live {
					r = o.Range
				} else {
					r.Start = next() % m.n
					r.End = min(r.Start+next()%4+1, m.n)
				}
				mask := next()
				if op%8 == 5 {
					mask = 0 // every line valid: the common case
				}
				lines, kinds, indices := batch(r.Start, r.End, mask, next()%4 == 0)
				m.deliver(id, lines, kinds, indices)
			}
		case 7:
			switch arg := next(); {
			case arg%16 == 0: // cancel
				m.l.Cancel()
				m.canceled, canceled = true, true
				clear(m.leases)
			case arg%2 == 0: // leaseless batch under a made-up ID
				a := next() % m.n
				lines, kinds, indices := batch(a, min(a+next()%4+1, m.n), next(), false)
				m.deliver("l999999", lines, kinds, indices)
			case arg%4 == 3: // a point settled by its line, leased or not
				i := next() % m.n
				m.l.Settle(i, bytes.Clone(m.own.results[i]))
				m.settled[i] = true
			default: // preload
				a := next() % m.n
				lines, kinds, indices := batch(a, min(a+next()%4+1, m.n), next(), false)
				m.deliver("", lines, kinds, indices)
			}
		}
		m.check()
		select {
		case <-wait:
			if m.emitted == before && !canceled {
				t.Fatalf("wait opened at fold %d with no advance and no Cancel", before)
			}
		default:
			if m.emitted > before || canceled {
				t.Fatalf("wait still shut after the fold went %d -> %d (canceled %v)", before, m.emitted, canceled)
			}
		}
	}
	// Drain: honest holders finish whatever is left. A canceled ledger
	// grants nothing, but records that arrive anyway still fold.
	m.size = 4
	for steps := 0; m.emitted < m.n; steps++ {
		if steps > 4*gridSize {
			t.Fatalf("ledger did not drain: %d of %d folded", m.emitted, m.n)
		}
		m.now = m.now.Add(m.ttl) // whatever is still leased expires
		if o := m.grant("drain"); o != nil {
			lines, kinds, indices := batch(o.Start, o.End, 0, false)
			m.deliver(o.ID, lines, kinds, indices)
		} else if m.canceled {
			lines, kinds, indices := batch(0, m.n, 0, false)
			m.deliver("", lines, kinds, indices)
		}
		m.check()
	}
	if o, done := m.l.Grant(m.now, "late"); !done || o != nil {
		t.Fatal("Grant after done did not say done")
	}
	if st := m.l.Stats(); st.Pending != 0 {
		t.Fatalf("finished ledger: %+v", st)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestLedgerRandomInterleavings model-checks the state machine on
// generated operation streams (see runLedgerOps for the operations and
// the properties).
func TestLedgerRandomInterleavings(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for round := 0; round < 400; round++ {
		ops := make([]byte, 1+rnd.Intn(120))
		rnd.Read(ops)
		runLedgerOps(t, ops)
	}
}

func FuzzLedger(f *testing.F) {
	f.Add([]byte{11, 0, 4, 5, 0, 0})
	f.Add([]byte{3, 0, 2, 6, 0, 0x4e, 1, 3, 4, 0, 1, 5, 1, 0})
	f.Add([]byte{7, 0, 3, 3, 4, 4, 0, 3, 6, 0, 0, 0, 7, 16, 7, 1, 0, 2, 0})
	f.Fuzz(func(t *testing.T, ops []byte) { runLedgerOps(t, ops) })
}

// The tests below pin, at the ledger, what the subprocess supervisor this
// package used to hold promised; `ctsan run`'s tests pin the rest
// (timeouts, backoff, cancellation) where the policy now lives.

// fullGrid returns a ledger over the whole fixture grid granting
// size-point leases.
func fullGrid(size int) (own grid, l *Ledger) {
	own, _ = fixtures()
	return own, NewLedger(own.hashes, time.Minute, func(int, int) int { return size })
}

// TestLedgerPreloadSkipsSettledRanges: records that exist before
// dispatch — a resumed run's checkpoints — are never leased again, and
// are folded from the preloaded bytes.
func TestLedgerPreloadSkipsSettledRanges(t *testing.T) {
	own, l := fullGrid(4)
	now := time.Now()
	if c := l.Preload(own.lines[4:8]); len(c.Accepted) != 4 || c.Emitted != 0 {
		t.Fatalf("preload of 4:8: %+v", c)
	}
	var granted []Range
	for {
		o, done := l.Grant(now, "slot")
		if done {
			break
		}
		if o == nil {
			t.Fatal("single holder was told to wait")
		}
		granted = append(granted, o.Range)
		l.Complete(now, o.ID, own.lines[o.Start:o.End])
	}
	if len(granted) != 2 || granted[0] != (Range{0, 4}) || granted[1] != (Range{8, 12}) {
		t.Fatalf("granted %v, want 0:4 and 8:12 only", granted)
	}
	if lines, _ := l.Lines(0); !bytes.Equal(bytes.Join(lines, nil), bytes.Join(own.results, nil)) {
		t.Fatal("fold differs from the grid's results in index order")
	}
	if st := l.Stats(); st.Granted != 2 || st.Completed != 2 || st.Requeued != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestLedgerSizesGrantsByPendingAndWorkers: the size policy is told, at
// each grant, the points pending and the workers that would then hold a
// lease — the live holders, the asker counted once.
func TestLedgerSizesGrantsByPendingAndWorkers(t *testing.T) {
	own, _ := fixtures()
	type ask struct{ pending, workers int }
	var asked []ask
	l := NewLedger(own.hashes, time.Minute, func(pending, workers int) int {
		asked = append(asked, ask{pending, workers})
		return 2
	})
	now := time.Now()
	a1, _ := l.Grant(now, "a")
	l.Grant(now, "b")
	l.Grant(now, "a")
	l.Complete(now, a1.ID, own.lines[a1.Start:a1.End])
	l.Grant(now, "c")
	n := len(own.hashes)
	want := []ask{{n, 1}, {n - 2, 2}, {n - 4, 2}, {n - 6, 3}}
	if !slices.Equal(asked, want) {
		t.Fatalf("size asked with %v, want %v", asked, want)
	}
}

// TestLedgerRequeuesHolesAndCountsAttempts: a holder that dies mid-range
// (its completion carries only the records it got to) costs exactly its
// holes, which come back as a lease on their next attempt; a healthy
// range beside it is granted once.
func TestLedgerRequeuesHolesAndCountsAttempts(t *testing.T) {
	own, l := fullGrid(6)
	now := time.Now()
	a, _ := l.Grant(now, "a")
	b, _ := l.Grant(now, "b")
	if a.Range != (Range{0, 6}) || b.Range != (Range{6, 12}) || a.Attempt != 1 || b.Attempt != 1 {
		t.Fatalf("fresh grants %+v %+v", a, b)
	}
	if c := l.Complete(now, b.ID, own.lines[6:12]); c.Holes != 0 || c.Lease.ID != b.ID {
		t.Fatalf("healthy completion: %+v", c)
	}
	// a crashes twice, two points further each time.
	for attempt, got := 1, 0; attempt <= 2; attempt++ {
		c := l.Complete(now, a.ID, own.lines[got:got+2])
		got += 2
		if c.Holes != 6-got || c.Done {
			t.Fatalf("attempt %d completion: %+v", attempt, c)
		}
		if a, _ = l.Grant(now, "a"); a == nil || a.Range != (Range{got, 6}) || a.Attempt != attempt+1 {
			t.Fatalf("re-grant after attempt %d: %+v", attempt, a)
		}
	}
	if c := l.Complete(now, a.ID, own.lines[4:6]); c.Holes != 0 || !c.Done || c.Emitted != 12 {
		t.Fatalf("final completion: %+v", c)
	}
	if st := l.Stats(); st.Granted != 4 || st.Completed != 2 || st.Requeued != 4+2 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestLedgerTrustsRecordsNotHolders: only verified records settle a
// lease. An empty-handed completion (a holder that reports success
// having written nothing) leaves the whole range pending, and records
// that reach the ledger by another road fulfil a lease whose holder
// then delivers nothing new.
func TestLedgerTrustsRecordsNotHolders(t *testing.T) {
	own, l := fullGrid(gridSize)
	now := time.Now()
	o, _ := l.Grant(now, "liar")
	if c := l.Complete(now, o.ID, nil); c.Holes != gridSize || c.Lease == nil {
		t.Fatalf("empty-handed completion: %+v", c)
	}
	if st := l.Stats(); st.Pending != gridSize || st.Completed != 0 {
		t.Fatalf("after the lie: %+v", st)
	}
	o, _ = l.Grant(now, "crasher")
	if o.Attempt != 2 {
		t.Fatalf("second grant: %+v", o)
	}
	// The holder persisted everything and then died: its records arrive
	// without it (a preload, a late batch), and its own completion — the
	// same lines again — is all duplicates yet fulfils the lease.
	l.Preload(own.lines)
	c := l.Complete(now, o.ID, own.lines)
	if c.Holes != 0 || c.Duplicate != gridSize || !c.Done {
		t.Fatalf("completion after the records arrived: %+v", c)
	}
	if st := l.Stats(); st.Completed != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestLedgerCoalescesAdjacentExpiredLeases: the ranges adjacent leases
// leave when they expire are pending again as one run, and the next
// grant takes it whole.
func TestLedgerCoalescesAdjacentExpiredLeases(t *testing.T) {
	own, _ := fixtures()
	size := 3
	l := NewLedger(own.hashes, time.Minute, func(int, int) int { return size })
	now := time.Now()
	l.Grant(now, "a")
	l.Grant(now, "b")
	size = gridSize
	c, _ := l.Grant(now, "c")
	if c.Range != (Range{6, 12}) {
		t.Fatalf("third grant %s, want 6:12", c.Range)
	}
	now = now.Add(time.Minute / 2)
	l.Renew(now, c.ID)
	now = now.Add(time.Minute / 2) // a and b expire, c lives
	o, _ := l.Grant(now, "d")
	if o == nil || o.Range != (Range{0, 6}) || o.Attempt != 2 {
		t.Fatalf("grant after a and b expired: %+v, want 0:6 on its second attempt", o)
	}
	if st := l.Stats(); st.Expired != 2 || st.Requeued != 6 || st.Pending != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestLedgerSettledPointSplitsNextGrant: a point settled inside a
// pending run ends the grant below it; the next grant starts above it.
func TestLedgerSettledPointSplitsNextGrant(t *testing.T) {
	own, l := fullGrid(gridSize)
	now := time.Now()
	l.Settle(5, bytes.Clone(own.results[5]))
	l.Settle(0, bytes.Clone(own.results[0]))
	var granted []Range
	for {
		o, _ := l.Grant(now, "a")
		if o == nil {
			break
		}
		granted = append(granted, o.Range)
	}
	if !slices.Equal(granted, []Range{{1, 5}, {6, 12}}) {
		t.Fatalf("granted %v, want 1:5 and 6:12", granted)
	}
}

// TestLedgerGrantsLowestPendingRun: a grant takes the pending run at the
// lowest index, not the longest one, cut at the size policy, and the
// rest of a cut run comes next.
func TestLedgerGrantsLowestPendingRun(t *testing.T) {
	own, _ := fixtures()
	size := 4
	l := NewLedger(own.hashes, time.Minute, func(int, int) int { return size })
	now := time.Now()
	a, _ := l.Grant(now, "a")
	l.Grant(now, "b") // 4:8, held throughout
	c, _ := l.Grant(now, "c")
	l.Complete(now, c.ID, own.lines[8:9])                                     // holes 9:12
	l.Complete(now, a.ID, [][]byte{own.lines[0], own.lines[1], own.lines[3]}) // hole 2:3
	var granted []Range
	for _, size = range []int{gridSize, 2, gridSize, gridSize} {
		o, done := l.Grant(now, "d")
		if done {
			t.Fatal("Grant said done while b holds 4:8")
		}
		if o != nil {
			granted = append(granted, o.Range)
		}
	}
	if !slices.Equal(granted, []Range{{2, 3}, {9, 11}, {11, 12}}) {
		t.Fatalf("granted %v, want 2:3, then 9:11 and 11:12", granted)
	}
}

// TestLedgerLinesReplayAndWake: Lines replays the fold from any index
// and reaches no further, and its wait channel opens at a fold advance
// and at Cancel, never at a settle above a gap.
func TestLedgerLinesReplayAndWake(t *testing.T) {
	own, l := fullGrid(gridSize)
	shut := func(wait <-chan struct{}) bool {
		select {
		case <-wait:
			return false
		default:
			return true
		}
	}
	replays := func(folded int) {
		t.Helper()
		for from := 0; from <= gridSize; from++ {
			lines, _ := l.Lines(from)
			want := own.results[min(from, folded):folded]
			if len(lines) != len(want) || cap(lines) != len(want) {
				t.Fatalf("Lines(%d) holds %d lines (cap %d), want the %d folded", from, len(lines), cap(lines), len(want))
			}
			for k := range want {
				if !bytes.Equal(lines[k], want[k]) {
					t.Fatalf("Lines(%d)[%d] is not line %d's result", from, k, from+k)
				}
			}
		}
	}
	lines, wait := l.Lines(0)
	if len(lines) != 0 || !shut(wait) {
		t.Fatalf("fresh ledger: %d lines, wait open %v", len(lines), !shut(wait))
	}
	l.Settle(2, bytes.Clone(own.results[2]))
	if !shut(wait) {
		t.Fatal("a settle above the gap at 0 opened wait")
	}
	replays(0)
	l.Settle(0, bytes.Clone(own.results[0]))
	if shut(wait) {
		t.Fatal("the fold advanced to 1 and wait stayed shut")
	}
	replays(1)
	_, wait = l.Lines(1)
	l.Preload(own.lines[1:2])
	if shut(wait) {
		t.Fatal("the fold advanced to 3 and wait stayed shut")
	}
	replays(3)
	_, wait = l.Lines(3)
	l.Settle(5, bytes.Clone(own.results[5]))
	l.Cancel()
	if shut(wait) {
		t.Fatal("Cancel left wait shut")
	}
	_, wait = l.Lines(3)
	l.Settle(4, bytes.Clone(own.results[4]))
	if !shut(wait) {
		t.Fatal("a settle above the gap at 3 opened wait after Cancel")
	}
	l.Preload(own.lines)
	if shut(wait) {
		t.Fatal("records folded after Cancel and wait stayed shut")
	}
	select {
	case <-l.Done():
	default:
		t.Fatal("the whole grid folded and Done is open")
	}
	replays(gridSize)
}

// TestLedgerReadersFollowConcurrentFolds: readers following Lines and
// its wait channel while several goroutines settle and preload the grid
// in scrambled orders each read every result line once, in grid order.
func TestLedgerReadersFollowConcurrentFolds(t *testing.T) {
	own, _ := fixtures()
	rnd := rand.New(rand.NewSource(3))
	for round := 0; round < 50; round++ {
		l := NewLedger(own.hashes, time.Minute, nil)
		var wg sync.WaitGroup
		read := make([][]byte, 4)
		for r := range read {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < gridSize; {
					lines, wait := l.Lines(i)
					for _, line := range lines {
						read[r] = append(read[r], line...)
					}
					if i += len(lines); i < gridSize {
						<-wait
					}
				}
			}()
		}
		for w := 0; w < 3; w++ {
			order := rnd.Perm(gridSize)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, i := range order {
					if w == 0 {
						l.Preload(own.lines[i : i+1])
					} else {
						l.Settle(i, bytes.Clone(own.results[i]))
					}
				}
			}()
		}
		wg.Wait()
		want := bytes.Join(own.results, nil)
		for r, got := range read {
			if !bytes.Equal(got, want) {
				t.Fatalf("round %d: reader %d read %d bytes that are not the grid's results in order", round, r, len(got))
			}
		}
	}
}

// TestLedgerSettleAllocatesNothing: settling a point is a store and a
// count, however the pending points lie; a settle that splits a pending
// run allocates nothing.
func TestLedgerSettleAllocatesNothing(t *testing.T) {
	const runs = 100
	n := 2 * (runs + 2)
	l := NewLedger(make([]string, n), time.Minute, func(int, int) int { return 1 })
	line := []byte("{}\n")
	next := n - 2
	if allocs := testing.AllocsPerRun(runs, func() {
		l.Settle(next, line)
		next -= 2
	}); allocs != 0 {
		t.Fatalf("Settle allocates %v objects per call", allocs)
	}
}

// TestLedgerRandomAgainstMap drives a ledger's pending set with random
// ops against a plain map-of-indices model: a lease ended without
// records returns its unsettled points, a settle removes one, and a grant
// must take the lowest pending run, cut at the size asked for.
func TestLedgerRandomAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const span = 64
	line := []byte("{}\n")
	now := time.Now()
	var (
		l       *Ledger
		size    int
		model   map[int]bool
		settled []bool
		leases  []*Lease
	)
	reset := func() {
		l = NewLedger(make([]string, span), time.Hour, func(int, int) int { return size })
		model = map[int]bool{}
		for i := 0; i < span; i++ {
			model[i] = true
		}
		settled = make([]bool, span)
		leases = nil
	}
	reset()
	for op := 0; op < 4000; op++ {
		switch rng.Intn(3) {
		case 0:
			if len(leases) == 0 {
				continue
			}
			k := rng.Intn(len(leases))
			o := leases[k]
			leases = slices.Delete(leases, k, k+1)
			c := l.Complete(now, o.ID, nil)
			holes := 0
			for i := o.Start; i < o.End; i++ {
				if !settled[i] {
					model[i] = true
					holes++
				}
			}
			if c.Lease == nil || c.Holes != holes {
				t.Fatalf("op %d: ending %s left %d holes (lease %v), model %d", op, o.Range, c.Holes, c.Lease != nil, holes)
			}
		case 1:
			i := rng.Intn(span)
			l.Settle(i, line)
			settled[i] = true
			delete(model, i)
		case 2:
			size = 1 + rng.Intn(5)
			o, done := l.Grant(now, "h")
			want := Range{Start: span, End: span}
			for i := 0; i < span; i++ {
				if model[i] {
					want = Range{Start: i, End: i}
					break
				}
			}
			for want.End < span && want.Len() < size && model[want.End] {
				want.End++
			}
			if want.Len() == 0 {
				if o != nil {
					t.Fatalf("op %d: granted %s with nothing pending", op, o.Range)
				}
				if done != !slices.Contains(settled, false) {
					t.Fatalf("op %d: Grant said done=%v", op, done)
				}
				if done {
					reset()
				}
				break
			}
			if o == nil || o.Range != want {
				t.Fatalf("op %d: Grant(size %d) = %+v, want %s", op, size, o, want)
			}
			for i := o.Start; i < o.End; i++ {
				delete(model, i)
			}
			leases = append(leases, o)
		}
		if st := l.Stats(); st.Pending != len(model) || st.Leases != len(leases) {
			t.Fatalf("op %d: %d pending and %d leases, model %d and %d", op, st.Pending, st.Leases, len(model), len(leases))
		}
	}
}
