package des

import "testing"

// TestScheduleSteadyStateAllocs pins the headline property of the pooled
// event queue: once the free list is warm, a schedule→fire cycle performs
// zero heap allocations.
func TestScheduleSteadyStateAllocs(t *testing.T) {
	var s Sim
	fn := func() {}
	// Warm the pool and the heap slice.
	for i := 0; i < 64; i++ {
		s.After(1, fn)
	}
	s.Run(nil)
	if allocs := testing.AllocsPerRun(1000, func() {
		s.After(1, fn)
		s.Step()
	}); allocs > 0 {
		t.Fatalf("steady-state schedule+fire allocates %.1f objects/op, want 0", allocs)
	}
	// The same cycle through a standing pile of equal times: each Step
	// takes the pile's head, each At links behind its tail.
	at := s.Now() + 1
	for i := 0; i < 256; i++ {
		s.At(at, fn)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		s.At(at, fn)
		s.Step()
	}); allocs > 0 {
		t.Fatalf("schedule+fire on an equal-time pile allocates %.1f objects/op, want 0", allocs)
	}
}

// TestCancelSteadyStateAllocs: schedule→cancel must also be allocation-free
// (it is the hot path of SAN timed-activity disarming).
func TestCancelSteadyStateAllocs(t *testing.T) {
	var s Sim
	fn := func() {}
	for i := 0; i < 64; i++ {
		s.Cancel(s.After(1, fn))
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		s.Cancel(s.After(1, fn))
	}); allocs > 0 {
		t.Fatalf("steady-state schedule+cancel allocates %.1f objects/op, want 0", allocs)
	}
	// Cancelling inside a pile of equal times: unlink from the middle,
	// file a replacement behind the tail.
	var pile [256]Handle
	for i := range pile {
		pile[i] = s.At(1, fn)
	}
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		s.Cancel(pile[i])
		pile[i] = s.At(1, fn)
		i = (i + 101) % len(pile)
	}); allocs > 0 {
		t.Fatalf("cancel+schedule inside an equal-time pile allocates %.1f objects/op, want 0", allocs)
	}
}

// TestHandleStaleAfterRecycle: a handle to a fired event must stay invalid
// — and Cancel on it must be a no-op — even after its pooled record has
// been reused by a later event.
func TestHandleStaleAfterRecycle(t *testing.T) {
	var s Sim
	h1 := s.After(1, func() {})
	s.Step() // fires h1; record goes to the free list
	if h1.Valid() {
		t.Fatal("handle to fired event still valid")
	}
	fired := false
	h2 := s.After(1, func() { fired = true }) // reuses h1's record
	if !h2.Valid() {
		t.Fatal("fresh handle invalid")
	}
	s.Cancel(h1) // stale: must not cancel h2's event
	if !h2.Valid() {
		t.Fatal("stale Cancel hit the recycled event")
	}
	s.Run(nil)
	if !fired {
		t.Fatal("recycled event did not fire")
	}
}

// TestHandleStaleAfterCancelRecycle mirrors the above for the cancel path.
func TestHandleStaleAfterCancelRecycle(t *testing.T) {
	var s Sim
	h1 := s.After(1, func() {})
	s.Cancel(h1)
	h2 := s.After(2, func() {})
	if h1.Valid() {
		t.Fatal("cancelled handle still valid after recycle")
	}
	s.Cancel(h1)
	if !h2.Valid() {
		t.Fatal("stale Cancel hit the recycled event")
	}
}

// TestReset: a reset Sim behaves like a fresh one but reuses its pool.
func TestReset(t *testing.T) {
	var s Sim
	fired := false
	h := s.At(5, func() { fired = true })
	s.At(7, func() {})
	s.Reset()
	if !s.Empty() || s.Now() != 0 || s.Steps() != 0 {
		t.Fatalf("Reset left state: now=%v steps=%d empty=%v", s.Now(), s.Steps(), s.Empty())
	}
	if h.Valid() {
		t.Fatal("handle survived Reset")
	}
	s.Run(nil)
	if fired {
		t.Fatal("pre-Reset event fired after Reset")
	}
	// The pool must make post-Reset scheduling allocation-free.
	fn := func() {}
	if allocs := testing.AllocsPerRun(100, func() {
		s.After(1, fn)
		s.Step()
	}); allocs > 0 {
		t.Fatalf("post-Reset schedule allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkDESSchedule measures the steady-state schedule→fire cycle with
// a queue of background events, the shape of the SAN inner loop.
func BenchmarkDESSchedule(b *testing.B) {
	var s Sim
	fn := func() {}
	for i := 0; i < 256; i++ {
		s.After(float64(i)+1e6, fn) // standing background queue
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(1, fn)
		s.Step()
	}
}

// BenchmarkDESScheduleCancel measures the arm→disarm cycle.
func BenchmarkDESScheduleCancel(b *testing.B) {
	var s Sim
	fn := func() {}
	for i := 0; i < 256; i++ {
		s.After(float64(i)+1e6, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Cancel(s.After(1, fn))
	}
}

// BenchmarkDESEqualTimePile measures schedule-one/fire-one through a
// standing pile of 256 simultaneous events. FIFO among ties files every
// new event last, so this is the shape that needs the bucket's tail
// pointer: a walk from the head would cost O(pile) per schedule.
func BenchmarkDESEqualTimePile(b *testing.B) {
	var s Sim
	fn := func() {}
	for i := 0; i < 256; i++ {
		s.At(1, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.At(1, fn)
		s.Step()
	}
}
