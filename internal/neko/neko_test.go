package neko

import (
	"reflect"
	"testing"
)

// fakeContext records sends for stack/broadcast tests.
type fakeContext struct {
	id    ProcessID
	n     int
	now   float64
	sent  []Message
	timer []float64
}

func (f *fakeContext) ID() ProcessID  { return f.id }
func (f *fakeContext) N() int         { return f.n }
func (f *fakeContext) Now() float64   { return f.now }
func (f *fakeContext) Send(m Message) { m.From = f.id; f.sent = append(f.sent, m) }
func (f *fakeContext) SetTimer(d float64, fn func()) TimerHandle {
	f.timer = append(f.timer, d)
	return fakeTimer{}
}

type fakeTimer struct{}

func (fakeTimer) Stop() {}

var _ Context = (*fakeContext)(nil)

func TestBroadcastOrderAndSelfSkip(t *testing.T) {
	ctx := &fakeContext{id: 3, n: 5}
	Broadcast(ctx, Message{Type: "x"})
	var dests []ProcessID
	for _, m := range ctx.sent {
		dests = append(dests, m.To)
		if m.From != 3 {
			t.Errorf("From = %d, want 3", m.From)
		}
	}
	want := []ProcessID{1, 2, 4, 5}
	if !reflect.DeepEqual(dests, want) {
		t.Fatalf("broadcast destinations %v, want ascending %v (n-1 unicasts, §5.1)", dests, want)
	}
}

func TestStackDispatch(t *testing.T) {
	ctx := &fakeContext{id: 1, n: 2}
	s := NewStack(ctx)
	var tapped, handled []string
	s.Tap(func(m *Message) { tapped = append(tapped, m.Type) })
	s.Handle("a", func(m Message) { handled = append(handled, m.Type) })
	s.Dispatch(&Message{Type: "a"})
	s.Dispatch(&Message{Type: "unknown"}) // dropped silently, still tapped
	if !reflect.DeepEqual(handled, []string{"a"}) {
		t.Fatalf("handled %v", handled)
	}
	if !reflect.DeepEqual(tapped, []string{"a", "unknown"}) {
		t.Fatalf("tapped %v", tapped)
	}
}

func TestTapRunsBeforeHandler(t *testing.T) {
	s := NewStack(&fakeContext{id: 1, n: 2})
	var order []string
	s.Handle("m", func(Message) { order = append(order, "handler") })
	s.Tap(func(*Message) { order = append(order, "tap") })
	s.Dispatch(&Message{Type: "m"})
	if !reflect.DeepEqual(order, []string{"tap", "handler"}) {
		t.Fatalf("order %v; the FD tap must observe messages before handlers", order)
	}
}

func TestDuplicateHandlerPanics(t *testing.T) {
	s := NewStack(&fakeContext{id: 1, n: 2})
	s.Handle("a", func(Message) {})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate handler registration did not panic")
		}
	}()
	s.Handle("a", func(Message) {})
}

func TestStackStartOrder(t *testing.T) {
	s := NewStack(&fakeContext{id: 1, n: 2})
	var order []int
	s.AddLayer(layerFunc(func() { order = append(order, 1) }))
	s.AddLayer(layerFunc(func() { order = append(order, 2) }))
	s.Start()
	if !reflect.DeepEqual(order, []int{1, 2}) {
		t.Fatalf("start order %v; layers must start bottom-up", order)
	}
}

type layerFunc func()

func (f layerFunc) Start() { f() }

func TestMessageString(t *testing.T) {
	m := Message{From: 1, To: 2, Type: "ct.ack"}
	if got := m.String(); got != "ct.ack p1→p2" {
		t.Errorf("String = %q", got)
	}
}
