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
	// emitted is how many results emit has delivered.
	emitted  int
	canceled bool
	size     int
}

func newLedgerModel(t testing.TB, n int) *ledgerModel {
	own, _ := fixtures()
	m := &ledgerModel{t: t, n: n, own: own, now: time.Unix(1_000_000, 0), ttl: 10 * time.Second,
		settled: make([]bool, n), leases: map[string]Lease{}, size: 1}
	m.l = NewLedger(own.hashes[:n], m.ttl, func(int, int) int { return m.size }, func(i int, line []byte) {
		// Strictly in order, exactly once, the line of the record's own
		// result, and never after Done.
		if i != m.emitted {
			t.Fatalf("emit(%d) but %d results emitted so far", i, m.emitted)
		}
		if !bytes.Equal(line, own.results[i]) {
			t.Fatalf("emit(%d) delivered bytes that are not the line of the record's result", i)
		}
		select {
		case <-m.l.done:
			t.Fatalf("emit(%d) after Done closed", i)
		default:
		}
		m.emitted++
	})
	return m
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

func (m *ledgerModel) grant(holder string) *Lease {
	o, retry, done := m.l.Grant(m.now, holder)
	if m.canceled || m.unsettled(Range{0, m.n}) == 0 {
		if !done || o != nil {
			m.t.Fatalf("Grant on a finished ledger = %+v, retry %v, done %v; want done", o, retry, done)
		}
		return nil
	}
	m.expire()
	switch {
	case done:
		m.t.Fatalf("Grant said done with %d points unsettled", m.unsettled(Range{0, m.n}))
	case o == nil:
		if retry <= 0 {
			m.t.Fatalf("Grant returned neither lease, done nor a retry hint")
		}
		return nil
	}
	if o.Len() < 1 || o.Len() > m.size {
		m.t.Fatalf("Grant of %s with size %d", o.Range, m.size)
	}
	for i := o.Start; i < o.End; i++ {
		if m.settled[i] {
			m.t.Fatalf("Grant of %s covers settled point %d", o.Range, i)
		}
	}
	for _, other := range m.leases {
		if o.Start < other.End && other.Start < o.End {
			m.t.Fatalf("Grant of %s overlaps live lease %s %s", o.Range, other.ID, other.Range)
		}
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
		m.t.Fatalf("Completion says emitted %d done %v; emit saw %d of %d", got.Emitted, got.Done, m.emitted, m.n)
	}
}

// check compares the ledger's state with the model's: the three states
// partition the grid, the fold cursor is the settled prefix, and Done is
// closed exactly when nothing remains.
func (m *ledgerModel) check() {
	l := m.l
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.pending.check(); err != nil {
		m.t.Fatal(err)
	}
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
	pending := map[int]bool{}
	for _, r := range l.pending.Ranges() {
		for i := r.Start; i < r.End; i++ {
			pending[i] = true
		}
	}
	for i := 0; i < m.n; i++ {
		leased := 0
		for id, o := range l.leases {
			if _, ok := m.leases[id]; !ok {
				m.t.Fatalf("ledger holds lease %s the model does not", id)
			}
			if i >= o.Start && i < o.End {
				leased++
			}
		}
		if l.settled(i) != m.settled[i] {
			m.t.Fatalf("point %d: ledger settled=%v, model %v", i, l.settled(i), m.settled[i])
		}
		states := 0
		if m.settled[i] {
			states++
		} else {
			states += leased
		}
		if pending[i] {
			states++
		}
		if states != 1 || leased > 1 {
			m.t.Fatalf("point %d: settled=%v pending=%v leases=%d — not exactly one state", i, m.settled[i], pending[i], leased)
		}
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
				m.canceled = true
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
	if o, _, done := m.l.Grant(m.now, "late"); !done || o != nil {
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
// size-point leases, and the lines it emits.
func fullGrid(size int) (own grid, l *Ledger, emitted *[][]byte) {
	own, _ = fixtures()
	emitted = new([][]byte)
	l = NewLedger(own.hashes, time.Minute, func(int, int) int { return size },
		func(_ int, result []byte) { *emitted = append(*emitted, result) })
	return own, l, emitted
}

// TestLedgerPreloadSkipsSettledRanges: records that exist before
// dispatch — a resumed run's checkpoints — are never leased again, and
// are folded from the preloaded bytes.
func TestLedgerPreloadSkipsSettledRanges(t *testing.T) {
	own, l, emitted := fullGrid(4)
	now := time.Now()
	if c := l.Preload(own.lines[4:8]); len(c.Accepted) != 4 || c.Emitted != 0 {
		t.Fatalf("preload of 4:8: %+v", c)
	}
	var granted []Range
	for {
		o, _, done := l.Grant(now, "slot")
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
	if !bytes.Equal(bytes.Join(*emitted, nil), bytes.Join(own.results, nil)) {
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
	}, func(int, []byte) {})
	now := time.Now()
	a1, _, _ := l.Grant(now, "a")
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
	own, l, _ := fullGrid(6)
	now := time.Now()
	a, _, _ := l.Grant(now, "a")
	b, _, _ := l.Grant(now, "b")
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
		if a, _, _ = l.Grant(now, "a"); a == nil || a.Range != (Range{got, 6}) || a.Attempt != attempt+1 {
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
	own, l, _ := fullGrid(gridSize)
	now := time.Now()
	o, _, _ := l.Grant(now, "liar")
	if c := l.Complete(now, o.ID, nil); c.Holes != gridSize || c.Lease == nil {
		t.Fatalf("empty-handed completion: %+v", c)
	}
	if st := l.Stats(); st.Pending != gridSize || st.Completed != 0 {
		t.Fatalf("after the lie: %+v", st)
	}
	o, _, _ = l.Grant(now, "crasher")
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
