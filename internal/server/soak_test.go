package server

import (
	"bytes"
	"net/http"
	"runtime"
	"testing"
	"time"

	"ctsan/campaign"
)

// TestSoakLeavesNoGoroutine runs 200 submit → stream → finish cycles of
// a six-point fine grid through one daemon, every fourth in fleet mode
// with a test worker serving its leases, and requires the goroutine count
// to return to what it was before the first: a finished study, local or
// fleet, holds no goroutine. It logs the live heap each finished study
// retains after two GCs, without gating on it. That is the figure a
// retention policy for finished studies is to be judged against; a
// finished 750-point fine-grid study held about 368 KB (491 B a point)
// when this test was written.
func TestSoakLeavesNoGoroutine(t *testing.T) {
	const cycles = 200
	grid := fineGrid(6)
	spec, err := campaign.EncodeStudy(grid)
	if err != nil {
		t.Fatal(err)
	}
	want := jsonl(t, grid, campaign.WithSeed(1))
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	// No cache, so what stays live is the studies themselves.
	h := newTestServer(t, Config{Workers: 2, MaxActive: 1, QueueDepth: 4, CacheBytes: -1})
	goroutines := runtime.NumGoroutine()
	var heap uint64
	start := time.Now()
	for k := range cycles {
		query := ""
		if k%4 == 3 {
			query = "?mode=fleet"
		}
		st := h.mustSubmit(t, spec, query)
		if query != "" {
			(&testWorker{h: h, name: "soak", study: grid}).serve(t, st.ID)
		}
		if got := h.streamResults(t, st.ID); !bytes.Equal(got, want) {
			t.Fatalf("cycle %d%s streamed\n%s\nwant\n%s", k, query, got, want)
		}
		if st := h.waitTerminal(t, st.ID); st.Status != "done" {
			t.Fatalf("cycle %d%s ended %+v", k, query, st)
		}
		if k == 0 {
			heap = live()
		}
	}
	elapsed := time.Since(start)
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	waitGoroutines(t, goroutines)
	retained := (float64(live()) - float64(heap)) / (cycles - 1)
	t.Logf("%d cycles in %v; each finished study retains %.0f B of live heap, %.0f B per point",
		cycles, elapsed.Round(time.Millisecond), retained, retained/float64(len(grid.Points)))
}
