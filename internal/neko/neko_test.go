package neko

import (
	"reflect"
	"testing"
	"unsafe"
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

func (fakeTimer) Stop()         {}
func (fakeTimer) Reset(float64) {}

var _ Context = (*fakeContext)(nil)

func TestBroadcastOrderAndSelfSkip(t *testing.T) {
	ctx := &fakeContext{id: 3, n: 5}
	Broadcast(ctx, Message{Payload: Payload{Kind: PayloadProbe}})
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
	var tapped, handled []PayloadKind
	s.Tap(func(m *Message) { tapped = append(tapped, m.Payload.Kind) })
	s.Handle(PayloadAck, func(m *Message) { handled = append(handled, m.Payload.Kind) })
	s.Dispatch(&Message{Payload: Payload{Kind: PayloadAck}})
	s.Dispatch(&Message{Payload: Payload{Kind: PayloadDecide}}) // no handler: dropped silently, still tapped
	s.Dispatch(&Message{})                                      // no kind: dropped silently, still tapped
	s.Dispatch(&Message{Payload: Payload{Kind: 200}})           // outside the closed set: dropped, still tapped
	if !reflect.DeepEqual(handled, []PayloadKind{PayloadAck}) {
		t.Fatalf("handled %v", handled)
	}
	if want := []PayloadKind{PayloadAck, PayloadDecide, PayloadNone, 200}; !reflect.DeepEqual(tapped, want) {
		t.Fatalf("tapped %v, want %v", tapped, want)
	}
}

func TestTapRunsBeforeHandler(t *testing.T) {
	s := NewStack(&fakeContext{id: 1, n: 2})
	var order []string
	s.Handle(PayloadHB, func(*Message) { order = append(order, "handler") })
	s.Tap(func(*Message) { order = append(order, "tap") })
	s.Dispatch(&Message{Payload: Payload{Kind: PayloadHB}})
	if !reflect.DeepEqual(order, []string{"tap", "handler"}) {
		t.Fatalf("order %v; the FD tap must observe messages before handlers", order)
	}
}

func TestDuplicateHandlerPanics(t *testing.T) {
	s := NewStack(&fakeContext{id: 1, n: 2})
	s.Handle(PayloadAck, func(*Message) {})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate handler registration did not panic")
		}
	}()
	s.Handle(PayloadAck, func(*Message) {})
}

func TestHandleInvalidKindPanics(t *testing.T) {
	for _, k := range []PayloadKind{PayloadNone, numPayloadKinds, 200} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Handle(%d) did not panic", k)
				}
			}()
			NewStack(&fakeContext{id: 1, n: 2}).Handle(k, func(*Message) {})
		}()
	}
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
	m := Message{From: 1, To: 2, Payload: Payload{Kind: PayloadAck}}
	if got := m.String(); got != "ct.ack p1→p2" {
		t.Errorf("String = %q", got)
	}
}

// TestPayloadKindNames pins the wire names traces print: trace goldens
// and their readers depend on these exact strings.
func TestPayloadKindNames(t *testing.T) {
	want := map[PayloadKind]string{
		PayloadNone:     "",
		PayloadHB:       "fd.hb",
		PayloadEstimate: "ct.estimate",
		PayloadPropose:  "ct.propose",
		PayloadAck:      "ct.ack",
		PayloadDecide:   "ct.decide",
		PayloadProbe:    "probe",
		200:             "PayloadKind(200)",
	}
	for k, name := range want {
		if got := k.String(); got != name {
			t.Errorf("PayloadKind(%d).String() = %q, want %q", uint8(k), got, name)
		}
	}
}

// TestMessageIsPlainData guards the executors that recycle message
// records without scrubbing them: a Message must hold no field that can
// pin a heap object, and stays 64 bytes on 64-bit platforms.
func TestMessageIsPlainData(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) == 8 {
		if size := unsafe.Sizeof(Message{}); size != 64 {
			t.Errorf("unsafe.Sizeof(Message{}) = %d, want 64", size)
		}
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.String, reflect.Slice, reflect.Map, reflect.Pointer,
			reflect.UnsafePointer, reflect.Interface, reflect.Func, reflect.Chan:
			t.Errorf("%s is a %s, which can hold a pointer", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		}
	}
	walk("Message", reflect.TypeOf(Message{}))
}
