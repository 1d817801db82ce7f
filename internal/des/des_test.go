package des

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"ctsan/internal/rng"
)

func TestOrdering(t *testing.T) {
	var s Sim
	var got []float64
	for _, tt := range []float64{5, 1, 3, 2, 4} {
		tt := tt
		s.At(tt, func() { got = append(got, tt) })
	}
	s.Run(nil)
	if !sort.Float64sAreSorted(got) || len(got) != 5 {
		t.Fatalf("events fired out of order: %v", got)
	}
	if s.Now() != 5 {
		t.Fatalf("final time %v", s.Now())
	}
}

func TestFIFOAmongEqualTimes(t *testing.T) {
	var s Sim
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(1, func() { got = append(got, i) })
	}
	s.Run(nil)
	for i, v := range got {
		if v != i {
			t.Fatalf("equal-time events not FIFO: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	var s Sim
	fired := false
	h := s.At(1, func() { fired = true })
	if !h.Valid() {
		t.Fatal("fresh handle invalid")
	}
	s.Cancel(h)
	if h.Valid() {
		t.Fatal("cancelled handle still valid")
	}
	s.Run(nil)
	if fired {
		t.Fatal("cancelled event fired")
	}
	s.Cancel(h) // double cancel is a no-op
}

func TestCancelDuringRun(t *testing.T) {
	var s Sim
	var h2 Handle
	fired := false
	s.At(1, func() { s.Cancel(h2) })
	h2 = s.At(2, func() { fired = true })
	s.Run(nil)
	if fired {
		t.Fatal("event cancelled mid-run still fired")
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	var s Sim
	var times []float64
	s.After(1, func() {
		s.After(2, func() { times = append(times, s.Now()) })
		times = append(times, s.Now())
	})
	s.Run(nil)
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Fatalf("nested scheduling times: %v", times)
	}
}

func TestPastPanics(t *testing.T) {
	var s Sim
	s.At(5, func() {})
	s.Run(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(1, func() {})
}

// TestNaNPanics: a NaN time compares false with everything, so it would
// pass a t < now check, be filed under a negative virtual bucket and
// never surface — Run would return with Empty() false for ever.
func TestNaNPanics(t *testing.T) {
	for name, schedule := range map[string]func(*Sim){
		"At":    func(s *Sim) { s.At(math.NaN(), func() {}) },
		"After": func(s *Sim) { s.After(math.NaN(), func() {}) },
	} {
		var s Sim
		var fired []float64
		s.At(1, func() { fired = append(fired, s.Now()) })
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(NaN) did not panic", name)
				}
			}()
			schedule(&s)
		}()
		s.At(2, func() { fired = append(fired, s.Now()) })
		s.Run(nil)
		if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 || !s.Empty() {
			t.Errorf("%s(NaN): fired %v, Empty() = %v; want [1 2] and an empty queue", name, fired, s.Empty())
		}
	}
}

func TestNegativeAfterClamps(t *testing.T) {
	var s Sim
	fired := false
	s.After(-3, func() { fired = true })
	s.Run(nil)
	if !fired || s.Now() != 0 {
		t.Fatal("After with negative delay mishandled")
	}
}

func TestRunUntil(t *testing.T) {
	var s Sim
	var fired []float64
	for _, tt := range []float64{1, 2, 3, 4} {
		tt := tt
		s.At(tt, func() { fired = append(fired, tt) })
	}
	s.RunUntil(2.5)
	if len(fired) != 2 || s.Now() != 2.5 {
		t.Fatalf("RunUntil: fired %v, now %v", fired, s.Now())
	}
	s.RunUntil(10)
	if len(fired) != 4 {
		t.Fatalf("remaining events lost: %v", fired)
	}
}

func TestRunStopPredicate(t *testing.T) {
	var s Sim
	count := 0
	for i := 0; i < 10; i++ {
		s.At(float64(i), func() { count++ })
	}
	s.Run(func() bool { return count == 3 })
	if count != 3 {
		t.Fatalf("stop predicate ignored: count %d", count)
	}
}

func TestPeekAndEmpty(t *testing.T) {
	var s Sim
	if !s.Empty() {
		t.Fatal("new sim not empty")
	}
	if _, ok := s.PeekTime(); ok {
		t.Fatal("PeekTime on empty queue")
	}
	s.At(7, func() {})
	if tt, ok := s.PeekTime(); !ok || tt != 7 {
		t.Fatalf("PeekTime = %v,%v", tt, ok)
	}
}

// TestRandomScheduleProperty: any random schedule (with random
// cancellations) executes events in non-decreasing time order and never
// executes cancelled ones.
func TestRandomScheduleProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		var s Sim
		type ev struct {
			t         float64
			cancelled bool
		}
		events := make([]*ev, 50)
		handles := make([]Handle, 50)
		var fired []float64
		bad := false
		for i := range events {
			e := &ev{t: r.Float64() * 100}
			events[i] = e
			i := i
			handles[i] = s.At(e.t, func() {
				if events[i].cancelled {
					bad = true
				}
				fired = append(fired, events[i].t)
			})
		}
		for i := range events {
			if r.Float64() < 0.3 {
				events[i].cancelled = true
				s.Cancel(handles[i])
			}
		}
		s.Run(nil)
		if bad || !sort.Float64sAreSorted(fired) {
			return false
		}
		want := 0
		for _, e := range events {
			if !e.cancelled {
				want++
			}
		}
		return len(fired) == want
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestRewidthFarFutureOrdering schedules a far-future straggler behind a
// dense event chain that drives the width adaptation. After the rewidth
// the straggler's recomputed virtual bucket lands just above where the
// (rebased) scan cursor sits; with a stale cursor in old-width units,
// locate's fast path would exact-match it and fire it before the rest of
// the chain, rewinding the clock.
func TestRewidthFarFutureOrdering(t *testing.T) {
	var s Sim
	var fired []float64
	// 10ms chain: after rewidthPeriod pops the mean gap (10) has drifted
	// a factor >2 from the initial width (1), so the width adapts to 20.
	n := 0
	var tick func()
	tick = func() {
		fired = append(fired, s.Now())
		if n++; n < rewidthPeriod+64 {
			s.After(10, tick)
		}
	}
	s.After(10, tick)
	// Straggler chosen so its width-20 virtual bucket (40965) falls inside
	// one ring span of the chain's old-width cursor at the rewidth pop
	// (t=40960, old vb 40960).
	const far = 819300
	s.At(far, func() { fired = append(fired, s.Now()) })
	s.Run(nil)
	if !sort.Float64sAreSorted(fired) {
		t.Fatalf("events fired out of time order across rewidth")
	}
	if len(fired) == 0 || fired[len(fired)-1] != far {
		t.Fatalf("far-future event did not fire last: tail %v", fired[len(fired)-1])
	}
	if s.Now() != far {
		t.Fatalf("final time %v, want %v", s.Now(), float64(far))
	}
}

// TestHugeTimeOrdering: event times large enough to overflow the
// float64→int64 virtual-bucket conversion are clamped, not wrapped to a
// negative index that locate would treat as "no live events".
func TestHugeTimeOrdering(t *testing.T) {
	var s Sim
	var fired []float64
	for _, tt := range []float64{1, 1e19, 9.5e18, 2} {
		tt := tt
		s.At(tt, func() { fired = append(fired, tt) })
	}
	s.Run(nil)
	if len(fired) != 4 || !sort.Float64sAreSorted(fired) {
		t.Fatalf("huge-time events mishandled: %v", fired)
	}
	if s.Now() != 1e19 {
		t.Fatalf("final time %v", s.Now())
	}
}

func TestSteps(t *testing.T) {
	var s Sim
	for i := 0; i < 5; i++ {
		s.At(float64(i), func() {})
	}
	s.Run(nil)
	if s.Steps() != 5 {
		t.Fatalf("Steps = %d", s.Steps())
	}
}
