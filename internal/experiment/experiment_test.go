package experiment

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"

	"ctsan/internal/fd"
	"ctsan/internal/neko"
)

func TestSpecValidation(t *testing.T) {
	bad := []LatencySpec{
		{N: 1, Executions: 10},
		{N: 3, Executions: 0},
		{N: 3, Executions: 1, Crashed: []neko.ProcessID{1, 2}}, // majority violated
		{N: 3, Executions: 1, FDMode: FDHeartbeat},             // no timeout
		{N: 3, Executions: 1, FDMode: FDMode(99), TimeoutT: 1}, // unknown mode
	}
	for i, spec := range bad {
		if _, err := RunLatencyContext(context.Background(), spec); err == nil {
			t.Errorf("spec %d accepted: %+v", i, spec)
		}
	}
}

func TestClass1MeansMatchPaperShape(t *testing.T) {
	// §5.2: latency grows roughly linearly in n; the per-process slope of
	// the paper is ~0.28 ms. We assert monotonic growth and a slope in a
	// generous band, plus tight confidence intervals.
	means := map[int]float64{}
	for _, n := range []int{3, 5, 7, 9, 11} {
		res, err := RunLatencyContext(context.Background(), LatencySpec{N: n, Executions: 500, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		means[n] = res.Digest.Mean()
		if res.Aborted != 0 {
			t.Errorf("n=%d: %d aborted class-1 executions", n, res.Aborted)
		}
		if ci := res.Digest.CI(0.90); ci > 0.05 {
			t.Errorf("n=%d: CI half-width %.3f too wide (paper: <0.02 at 5000 executions)", n, ci)
		}
		if mr := res.MeanRounds(); mr > 1.05 {
			t.Errorf("n=%d: mean rounds %.2f, want ~1 in class 1", n, mr)
		}
	}
	for _, pair := range [][2]int{{3, 5}, {5, 7}, {7, 9}, {9, 11}} {
		lo, hi := means[pair[0]], means[pair[1]]
		if hi <= lo {
			t.Errorf("latency not increasing: n=%d %.3f vs n=%d %.3f", pair[0], lo, pair[1], hi)
		}
	}
	slope := (means[11] - means[3]) / 8
	if slope < 0.1 || slope > 0.5 {
		t.Errorf("per-process latency slope %.3f ms outside [0.1, 0.5] (paper ~0.28)", slope)
	}
}

func TestTable1DirectionsMeasured(t *testing.T) {
	// §5.3 directions on the measurement side.
	run := func(n int, crashed ...neko.ProcessID) float64 {
		res, err := RunLatencyContext(context.Background(), LatencySpec{N: n, Executions: 500, Seed: 2, Crashed: crashed})
		if err != nil {
			t.Fatal(err)
		}
		return res.Digest.Mean()
	}
	for _, n := range []int{3, 5, 7} {
		base := run(n)
		coord := run(n, 1)
		part := run(n, 2)
		if coord <= base {
			t.Errorf("n=%d: coordinator crash %.3f !> no crash %.3f", n, coord, base)
		}
		if n == 3 && part <= base {
			t.Errorf("n=3: participant crash %.3f !> no crash %.3f (the §5.3 anomaly)", part, base)
		}
		if n >= 5 && part >= base {
			t.Errorf("n=%d: participant crash %.3f !< no crash %.3f", n, part, base)
		}
	}
}

func TestCoordinatorCrashTakesTwoRounds(t *testing.T) {
	res, err := RunLatencyContext(context.Background(), LatencySpec{N: 5, Executions: 100, Seed: 3, Crashed: []neko.ProcessID{1}})
	if err != nil {
		t.Fatal(err)
	}
	if mr := res.MeanRounds(); math.Abs(mr-2) > 0.05 {
		t.Fatalf("mean rounds %.2f, want 2 (§5.3)", mr)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	a, err := RunLatencyContext(context.Background(), LatencySpec{N: 3, Executions: 50, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunLatencyContext(context.Background(), LatencySpec{N: 3, Executions: 50, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	al, bl := a.Digest.Exact(), b.Digest.Exact()
	if len(al) != len(bl) {
		t.Fatal("different sample counts")
	}
	for i := range al {
		if al[i] != bl[i] {
			t.Fatalf("nondeterministic latency at %d", i)
		}
	}
	c, err := RunLatencyContext(context.Background(), LatencySpec{N: 3, Executions: 50, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	cl := c.Digest.Exact()
	same := true
	for i := range al {
		if al[i] != cl[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds gave identical campaigns")
	}
}

func TestClass3QoSShape(t *testing.T) {
	// §5.4: T_MR grows with T; latency at very small T well above the
	// class-1 plateau; mistakes essentially disappear at T = 100.
	type point struct{ tmr, lat float64 }
	pts := map[float64]point{}
	for _, T := range []float64{2, 7, 30, 100} {
		res, err := RunLatencyContext(context.Background(), LatencySpec{
			N: 3, Executions: 250, Seed: 4, FDMode: FDHeartbeat, TimeoutT: T,
		})
		if err != nil {
			t.Fatal(err)
		}
		pts[T] = point{res.QoS.TMR, res.Digest.Mean()}
	}
	// At T = 30 and 100 every pair may already be mistake-free, in which
	// case both report the same censored value (2·T_exp) — require strict
	// growth through T = 30 and no decrease beyond.
	if !(pts[2].tmr < pts[7].tmr && pts[7].tmr < pts[30].tmr && pts[30].tmr <= pts[100].tmr*1.05) {
		t.Errorf("T_MR not increasing in T: %+v", pts)
	}
	if pts[2].lat < 1.2*pts[100].lat {
		t.Errorf("latency at T=2 (%.3f) not clearly above plateau (%.3f)", pts[2].lat, pts[100].lat)
	}
}

func TestHeartbeatPeriodDefault(t *testing.T) {
	shape, _, err := LatencySpec{N: 3, Executions: 1, FDMode: FDHeartbeat, TimeoutT: 10}.Check()
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHarness(shape)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.shape.PeriodTh; got != 7 {
		t.Fatalf("default T_h = %v, want 0.7·T (§5.4)", got)
	}
}

func TestMeasureDelays(t *testing.T) {
	uni, err := MeasureDelaysContext(context.Background(), DelaySpec{N: 3, Count: 500, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(uni) < 450 {
		t.Fatalf("only %d/500 probes measured", len(uni))
	}
	mean := 0.0
	for _, v := range uni {
		if v <= 0 {
			t.Fatal("non-positive delay")
		}
		mean += v
	}
	mean /= float64(len(uni))
	// The calibrated emulator matches the paper's unicast fit mean ~0.14.
	if mean < 0.11 || mean > 0.18 {
		t.Errorf("unicast mean delay %.4f outside the §5.1 band", mean)
	}
	bc, err := MeasureDelaysContext(context.Background(), DelaySpec{N: 5, Count: 500, Broadcast: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	bmean := 0.0
	for _, v := range bc {
		bmean += v
	}
	bmean /= float64(len(bc))
	if bmean <= mean {
		t.Errorf("broadcast mean %.4f not above unicast %.4f (Fig. 6)", bmean, mean)
	}
}

func TestMeasureDelaysValidation(t *testing.T) {
	if _, err := MeasureDelaysContext(context.Background(), DelaySpec{N: 1, Count: 10}); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := MeasureDelaysContext(context.Background(), DelaySpec{N: 3, Count: 0}); err == nil {
		t.Error("zero probes accepted")
	}
}

func TestFidelityScale(t *testing.T) {
	f := QuickFidelity().Scale(0.5)
	if f.Executions != 200 {
		t.Fatalf("scaled executions %d", f.Executions)
	}
	tiny := QuickFidelity().Scale(0.001)
	if tiny.Executions < 8 {
		t.Fatal("scale floor violated")
	}
	if PaperFidelity().Executions != 5000 {
		t.Fatal("paper fidelity executions")
	}
}

// liveHeap is the heap in use after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestRetainedMemoryIndependentOfExecutions: the engines retain nothing
// per execution. Stragglers of finished executions (acks and estimates
// beyond the majority, arriving after the harness has forgotten the
// instance) used to be parked in the engines' pending buffers until the
// end of the campaign — ~540 B per execution, the whole of a long run's
// heap. After a class-1 and a class-3 run no engine holds more than the
// one buffer of an instance about to start, and the live heap after
// 10,000 executions is that of 2,000: the latency digest's exact buffer,
// capped at 64 KiB, is all that still grows in that window. A heartbeat
// run is held to the same bound: its fd.History folds the QoS estimate
// per pair as transitions are recorded.
func TestRetainedMemoryIndependentOfExecutions(t *testing.T) {
	for _, spec := range []LatencySpec{
		{N: 5, Executions: 10_000, Seed: 1},
		{N: 5, Executions: 10_000, Seed: 1, FDMode: FDHeartbeat, TimeoutT: 10},
	} {
		shape, plan, err := spec.Check()
		if err != nil {
			t.Fatal(err)
		}
		plan.History = &fd.History{}
		h, err := NewHarness(shape)
		if err != nil {
			t.Fatal(err)
		}
		var early, late uint64
		plan.Trace = func(k int, _ float64) {
			switch {
			case k >= 2_000 && early == 0:
				early = liveHeap()
			case k >= 9_990 && late == 0:
				late = liveHeap()
			}
		}
		if _, err := h.Run(context.Background(), plan); err != nil {
			t.Fatal(err)
		}
		t.Logf("FD mode %d: live heap %d KiB at execution 2,000, %d KiB at 10,000", spec.FDMode, early>>10, late>>10)
		if early == 0 || late == 0 || late > early+64<<10 {
			t.Errorf("live heap grew from %d to %d bytes between executions 2,000 and 10,000", early, late)
		}
		for i, e := range h.engines[1:] {
			// consensus.Engine.pending is unexported; reflection may still
			// take the length of the map.
			if n := reflect.ValueOf(e).Elem().FieldByName("pending").Len(); n > 1 {
				t.Errorf("FD mode %d: engine %d holds %d pending buffers after the run", spec.FDMode, i+1, n)
			}
		}
	}
}
