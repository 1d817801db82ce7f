package trace

import (
	"bytes"
	"strings"
	"testing"
)

func ev(t float64, k Kind, p int32) Event {
	return Event{T: t, Kind: k, P: p}
}

func TestSnapshotOrderNoWrap(t *testing.T) {
	tr := New(8)
	for i := 0; i < 5; i++ {
		tr.Emit(ev(float64(i), KindFire, int32(i)))
	}
	if tr.Len() != 5 || tr.Total() != 5 || tr.Dropped() != 0 {
		t.Fatalf("Len=%d Total=%d Dropped=%d", tr.Len(), tr.Total(), tr.Dropped())
	}
	s := tr.Snapshot()
	if len(s.Events) != 5 || s.Dropped != 0 {
		t.Fatalf("snapshot: %d events, dropped %d", len(s.Events), s.Dropped)
	}
	for i, e := range s.Events {
		if e.P != int32(i) {
			t.Fatalf("event %d: P=%d", i, e.P)
		}
	}
}

func TestSnapshotOrderWrapped(t *testing.T) {
	tr := New(4)
	for i := 0; i < 10; i++ {
		tr.Emit(ev(float64(i), KindFire, int32(i)))
	}
	if tr.Len() != 4 || tr.Total() != 10 || tr.Dropped() != 6 {
		t.Fatalf("Len=%d Total=%d Dropped=%d", tr.Len(), tr.Total(), tr.Dropped())
	}
	s := tr.Snapshot()
	if s.Dropped != 6 {
		t.Fatalf("snapshot dropped %d, want 6", s.Dropped)
	}
	want := []int32{6, 7, 8, 9}
	for i, e := range s.Events {
		if e.P != want[i] {
			t.Fatalf("event %d: P=%d, want %d", i, e.P, want[i])
		}
	}
}

func TestResetReuse(t *testing.T) {
	tr := New(4)
	for i := 0; i < 7; i++ {
		tr.Emit(ev(float64(i), KindFire, int32(i)))
	}
	tr.Reset()
	if tr.Len() != 0 || tr.Total() != 0 || tr.Dropped() != 0 {
		t.Fatalf("after Reset: Len=%d Total=%d Dropped=%d", tr.Len(), tr.Total(), tr.Dropped())
	}
	tr.Emit(ev(42, KindCrash, 2))
	s := tr.Snapshot()
	if len(s.Events) != 1 || s.Events[0].Kind != KindCrash {
		t.Fatalf("post-reset snapshot: %+v", s.Events)
	}
}

func TestEmitZeroAllocs(t *testing.T) {
	tr := New(128)
	e := Event{T: 1.5, P: 1, Q: 2, Kind: KindSend, A: 3, S: "ct.estimate"}
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Emit(e)
	})
	if allocs != 0 {
		t.Fatalf("Emit allocated %.1f allocs/op, want 0", allocs)
	}
}

func TestNewDefaultCap(t *testing.T) {
	if got := New(0).Cap(); got != DefaultCap {
		t.Fatalf("New(0).Cap() = %d, want %d", got, DefaultCap)
	}
	if got := New(16).Cap(); got != 16 {
		t.Fatalf("New(16).Cap() = %d, want 16", got)
	}
}

func TestKindNames(t *testing.T) {
	for k := Kind(1); k < kindCount; k++ {
		if k.Name() == "" || k.Name() == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if Kind(0).Name() != "" {
		t.Fatalf("zero kind name = %q", Kind(0).Name())
	}
	if kindCount.Name() != "unknown" {
		t.Fatalf("out-of-range kind name = %q", kindCount.Name())
	}
}

func TestWriteJSONLDeterministic(t *testing.T) {
	build := func() *Trace {
		tr := New(8)
		tr.Emit(Event{T: 0.125, Kind: KindSchedule, X: 10.5})
		tr.Emit(Event{T: 10.5, P: 1, Q: 2, Kind: KindSend, S: "fd.hb"})
		tr.Emit(Event{T: 11, P: 2, Q: 1, Kind: KindDeliver, S: "fd.hb", A: 7})
		tr.Emit(Event{T: 12, P: 1, Q: 2, Kind: KindDrop, B: DropLinkLoss, S: "ct.ack"})
		return tr.Snapshot()
	}
	var a, b bytes.Buffer
	if err := build().WriteJSONL(&a, 3); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSONL(&b, 3); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("non-deterministic JSONL:\n%s\nvs\n%s", a.String(), b.String())
	}
	want := `{"rep":3,"t":0.125,"k":"schedule","x":10.5}
{"rep":3,"t":10.5,"k":"send","p":1,"q":2,"s":"fd.hb"}
{"rep":3,"t":11,"k":"deliver","p":2,"q":1,"a":7,"s":"fd.hb"}
{"rep":3,"t":12,"k":"drop","p":1,"q":2,"b":2,"s":"ct.ack"}
`
	if a.String() != want {
		t.Fatalf("JSONL output:\n%s\nwant:\n%s", a.String(), want)
	}
}

func TestWriteJSONLTruncationMeta(t *testing.T) {
	tr := New(2)
	for i := 0; i < 5; i++ {
		tr.Emit(ev(float64(i), KindFire, 0))
	}
	var b bytes.Buffer
	if err := tr.Snapshot().WriteJSONL(&b, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"meta":"ring-truncated","dropped":3`) {
		t.Fatalf("missing truncation meta line:\n%s", b.String())
	}
}

func TestChromeWriter(t *testing.T) {
	tr := New(8)
	tr.Emit(Event{T: 1.5, P: 1, Q: 2, Kind: KindSend, S: "ct.estimate"})
	tr.Emit(Event{T: 2, P: 2, Kind: KindSuspect, Q: 1, X: 0.5})
	snap := tr.Snapshot()

	var b bytes.Buffer
	cw, err := NewChromeWriter(&b)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Add(0, snap); err != nil {
		t.Fatal(err)
	}
	if err := cw.Add(1, snap); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, `{"traceEvents":[`) || !strings.Contains(out, `"displayTimeUnit"`) {
		t.Fatalf("malformed document:\n%s", out)
	}
	if !strings.Contains(out, `"name":"send ct.estimate"`) {
		t.Fatalf("missing named send event:\n%s", out)
	}
	if !strings.Contains(out, `"ts":1500`) {
		t.Fatalf("missing microsecond timestamp:\n%s", out)
	}
	if strings.Count(out, `"pid":1`) != 2 {
		t.Fatalf("second replica events not tagged pid 1:\n%s", out)
	}
}

func TestWindow(t *testing.T) {
	tr := New(16)
	for i := 0; i < 10; i++ {
		tr.Emit(ev(float64(i), KindFire, int32(i)))
	}
	w := tr.Snapshot().Window(3, 7)
	if len(w) != 4 || w[0].T != 3 || w[len(w)-1].T != 6 {
		t.Fatalf("window: %+v", w)
	}
}

func TestEventString(t *testing.T) {
	e := Event{T: 123.5, P: 1, Q: 2, Kind: KindSuspect, X: 100}
	s := e.String()
	if !strings.Contains(s, "suspect") || !strings.Contains(s, "p1 suspects p2") {
		t.Fatalf("String() = %q", s)
	}
	if !strings.Contains(s, "silent 23.5 ms") {
		t.Fatalf("missing silence duration: %q", s)
	}
}

// Cap returns the ring capacity.
func (t *Tracer) Cap() int { return len(t.buf) }

// Total returns the number of events emitted since the last Reset,
// including overwritten ones.
func (t *Tracer) Total() uint64 { return t.n }
