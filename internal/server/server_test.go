package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ctsan/campaign"
	"ctsan/internal/obs"
	"ctsan/internal/scenario"
)

// testStudy is the study every service test submits: three small SAN
// points, one with a pinned seed, so runs finish in milliseconds and
// exercise label derivation, seed derivation, and seed pinning.
func testStudy() *campaign.Study {
	return campaign.NewStudy("svc-test",
		campaign.SANPoint{N: 3, Replicas: 30},
		campaign.SANPoint{N: 5, Replicas: 30},
		campaign.SANPoint{Name: "pinned", N: 3, Replicas: 20, Seed: 7},
	)
}

func testSpecBytes(t *testing.T) []byte {
	t.Helper()
	spec, err := campaign.EncodeStudy(testStudy())
	if err != nil {
		t.Fatalf("EncodeStudy: %v", err)
	}
	return spec
}

// referenceJSONL runs the study in process — no HTTP, no cache — and
// returns the JSONL bytes the service must reproduce exactly.
func referenceJSONL(t *testing.T, workers int) []byte {
	t.Helper()
	return jsonl(t, testStudy(), campaign.WithSeed(1), campaign.WithWorkers(workers))
}

// jsonl runs the study in process through campaign.RunCollect and returns
// its JSON Lines: json.Marshal of each result and a newline, in point
// order.
func jsonl(t *testing.T, study *campaign.Study, opts ...campaign.Option) []byte {
	t.Helper()
	results, err := campaign.RunCollect(context.Background(), study, opts...)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	var buf bytes.Buffer
	for _, r := range results {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(line, '\n'))
	}
	return buf.Bytes()
}

type testServer struct {
	s  *Server
	ts *httptest.Server
}

func newTestServer(t *testing.T, cfg Config) *testServer {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.HTTPServer().Handler)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		ts.Close()
	})
	return &testServer{s: s, ts: ts}
}

func (h *testServer) post(t *testing.T, path string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(h.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: read body: %v", path, err)
	}
	return resp, data
}

func (h *testServer) get(t *testing.T, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(h.ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp, data
}

func (h *testServer) mustSubmit(t *testing.T, spec []byte, query string) Status {
	t.Helper()
	resp, data := h.post(t, "/api/v1/studies"+query, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, data)
	}
	var st Status
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("submit: decode status: %v", err)
	}
	// The 202 snapshot races the scheduler slot: an idle daemon may have
	// started (or, warm, finished) the study before the reply is built.
	if st.ID == "" || (st.Status != "queued" && st.Status != "running" && st.Status != "done") {
		t.Fatalf("submit: unexpected initial status %+v", st)
	}
	return st
}

func (h *testServer) status(t *testing.T, id string) Status {
	t.Helper()
	resp, data := h.get(t, "/api/v1/studies/"+id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: %d (%s)", id, resp.StatusCode, data)
	}
	var st Status
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("status %s: decode: %v", id, err)
	}
	return st
}

func (h *testServer) waitTerminal(t *testing.T, id string) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := h.status(t, id)
		switch st.Status {
		case "done", "failed", "canceled":
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("study %s did not finish: %+v", id, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (h *testServer) waitRunning(t *testing.T, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := h.status(t, id)
		if st.Status == "running" {
			return
		}
		if st.Status != "queued" || time.Now().After(deadline) {
			t.Fatalf("study %s did not reach running: %+v", id, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// streamResults reads the full JSONL stream; it returns only when the
// study is terminal, because the handler follows the live tail to the
// end of the stream.
func (h *testServer) streamResults(t *testing.T, id string) []byte {
	t.Helper()
	resp, data := h.get(t, "/api/v1/studies/"+id+"/results")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results %s: status %d", id, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("results %s: content type %q", id, ct)
	}
	return data
}

// TestDifferentialByteIdentity is the acceptance differential: a study
// submitted over HTTP produces byte-for-byte the JSONL of an in-process
// campaign.Run — cold cache, warm cache, and at 1, 2, and 8 workers.
func TestDifferentialByteIdentity(t *testing.T) {
	spec := testSpecBytes(t)
	want := referenceJSONL(t, 1)
	points := len(testStudy().Points)
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			// MaxActive 1 makes the per-study budget exactly `workers`.
			h := newTestServer(t, Config{Workers: workers, MaxActive: 1, QueueDepth: 8, CacheBytes: 32 << 20})

			cold := h.mustSubmit(t, spec, "")
			if got := h.streamResults(t, cold.ID); !bytes.Equal(got, want) {
				t.Errorf("cold stream differs from in-process run:\n got: %s\nwant: %s", got, want)
			}
			st := h.waitTerminal(t, cold.ID)
			if st.Status != "done" || st.Done != points {
				t.Fatalf("cold study: %+v", st)
			}
			if st.CacheHits != 0 || st.CacheMisses != int64(points) {
				t.Errorf("cold study: hits=%d misses=%d, want 0/%d", st.CacheHits, st.CacheMisses, points)
			}
			if st.Workers != workers {
				t.Errorf("study budget = %d, want %d", st.Workers, workers)
			}

			warm := h.mustSubmit(t, spec, "")
			if got := h.streamResults(t, warm.ID); !bytes.Equal(got, want) {
				t.Errorf("warm stream differs from in-process run:\n got: %s\nwant: %s", got, want)
			}
			st = h.waitTerminal(t, warm.ID)
			if st.CacheHits != int64(points) || st.CacheMisses != 0 {
				t.Errorf("warm study: hits=%d misses=%d, want %d/0", st.CacheHits, st.CacheMisses, points)
			}

			// The digests' result arrays are spliced from the streamed
			// bytes, so they match each other and the stream.
			coldDigest := h.digest(t, cold.ID)
			warmDigest := h.digest(t, warm.ID)
			wantLines := splitLines(want)
			if len(coldDigest.Results) != len(wantLines) {
				t.Fatalf("digest has %d results, want %d", len(coldDigest.Results), len(wantLines))
			}
			for i := range wantLines {
				if !bytes.Equal(coldDigest.Results[i], wantLines[i]) || !bytes.Equal(warmDigest.Results[i], wantLines[i]) {
					t.Errorf("digest result %d differs from stream line", i)
				}
			}
		})
	}
}

func splitLines(jsonl []byte) [][]byte {
	var out [][]byte
	for _, line := range bytes.Split(jsonl, []byte{'\n'}) {
		if len(line) > 0 {
			out = append(out, line)
		}
	}
	return out
}

func (h *testServer) digest(t *testing.T, id string) digestBody {
	t.Helper()
	resp, data := h.get(t, "/api/v1/studies/"+id+"/digest")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("digest %s: status %d (%s)", id, resp.StatusCode, data)
	}
	var d digestBody
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatalf("digest %s: decode: %v", id, err)
	}
	return d
}

// TestSeedChangesResults pins that the seed query parameter reaches the
// campaign: different seeds yield different bytes, same seed identical.
func TestSeedChangesResults(t *testing.T) {
	spec := testSpecBytes(t)
	h := newTestServer(t, Config{Workers: 2, MaxActive: 1, QueueDepth: 8, CacheBytes: -1})
	a := h.mustSubmit(t, spec, "?seed=2")
	b := h.mustSubmit(t, spec, "?seed=3")
	c := h.mustSubmit(t, spec, "?seed=2")
	sa := h.streamResults(t, a.ID)
	sb := h.streamResults(t, b.ID)
	sc := h.streamResults(t, c.ID)
	if bytes.Equal(sa, sb) {
		t.Errorf("seed 2 and seed 3 produced identical streams")
	}
	if !bytes.Equal(sa, sc) {
		t.Errorf("two seed-2 submissions produced different streams")
	}
}

// TestAdmissionQueueFullAndBudget holds MaxActive studies at "running"
// behind the test gate, fills the bounded queue, and checks that the
// next submission is rejected with 429 + Retry-After while every
// admitted study later completes on its carved worker budget.
func TestAdmissionQueueFullAndBudget(t *testing.T) {
	s := New(Config{Workers: 8, MaxActive: 2, QueueDepth: 2, CacheBytes: -1})
	gate := make(chan struct{})
	s.testGate = gate
	ts := httptest.NewServer(s.HTTPServer().Handler)
	h := &testServer{s: s, ts: ts}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		ts.Close()
	})

	if s.budget != 4 {
		t.Fatalf("budget = %d, want 8/2 = 4", s.budget)
	}

	spec := testSpecBytes(t)
	var ids []string
	// Two studies occupy the MaxActive slots (blocked at the gate)...
	for i := 0; i < 2; i++ {
		st := h.mustSubmit(t, spec, "")
		ids = append(ids, st.ID)
		h.waitRunning(t, st.ID)
	}
	// ...two more fill the queue...
	for i := 0; i < 2; i++ {
		st := h.mustSubmit(t, spec, "")
		ids = append(ids, st.ID)
	}
	// ...and the fifth is turned away.
	resp, data := h.post(t, "/api/v1/studies", spec)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: status %d (%s), want 429", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("429 without Retry-After header")
	}
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil || eb.Error == "" {
		t.Errorf("429 body not an error object: %s", data)
	}

	// A malformed spec is a client error even at full capacity —
	// validation precedes admission.
	resp, _ = h.post(t, "/api/v1/studies", []byte("{not json"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed spec at full queue: status %d, want 400", resp.StatusCode)
	}

	// Stats see the backlog.
	var stats statsBody
	_, data = h.get(t, "/api/v1/stats")
	if err := json.Unmarshal(data, &stats); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if stats.Queue["depth"] != 2 || stats.Studies["running"] != 2 {
		t.Errorf("stats = %+v, want queue depth 2 and 2 running", stats)
	}

	close(gate)
	for _, id := range ids {
		st := h.waitTerminal(t, id)
		if st.Status != "done" {
			t.Errorf("study %s: %+v", id, st)
		}
		if st.Workers != 4 {
			t.Errorf("study %s ran on %d workers, want budget 4", id, st.Workers)
		}
	}
}

// TestGracefulShutdownDrains submits work, shuts down with a generous
// deadline, and checks the studies completed, later submissions get
// 503, and no goroutines leak.
func TestGracefulShutdownDrains(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Config{Workers: 2, MaxActive: 2, QueueDepth: 4, CacheBytes: 1 << 20})
	ts := httptest.NewServer(s.HTTPServer().Handler)
	h := &testServer{s: s, ts: ts}

	spec := testSpecBytes(t)
	a := h.mustSubmit(t, spec, "")
	b := h.mustSubmit(t, spec, "")

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for _, st := range []Status{h.status(t, a.ID), h.status(t, b.ID)} {
		if st.Status != "done" {
			t.Errorf("after drain, study %s is %q (%+v)", st.ID, st.Status, st)
		}
	}

	resp, _ := h.post(t, "/api/v1/studies", spec)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("503 without Retry-After header")
	}
	resp, _ = h.get(t, "/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: status %d, want 503", resp.StatusCode)
	}

	// Second Shutdown is a no-op, not a close-of-closed-channel panic.
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}

	ts.Close()
	waitGoroutines(t, base)
}

// waitGoroutines polls until the goroutine count returns near base —
// the leak check after a full shutdown.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+2 { // allow stragglers from the HTTP client pool
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d > base %d\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestShutdownDeadlineCancels pins the deadline path: a study held at
// "running" past the shutdown deadline is canceled through the ctx
// plumbing and lands in status "canceled", its stream finished.
func TestShutdownDeadlineCancels(t *testing.T) {
	s := New(Config{Workers: 1, MaxActive: 1, QueueDepth: 2, CacheBytes: -1})
	s.testGate = make(chan struct{}) // never closed: the study blocks until canceled
	ts := httptest.NewServer(s.HTTPServer().Handler)
	h := &testServer{s: s, ts: ts}
	t.Cleanup(ts.Close)

	st := h.mustSubmit(t, testSpecBytes(t), "")
	h.waitRunning(t, st.ID)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	final := h.status(t, st.ID)
	if final.Status != "canceled" {
		t.Fatalf("after deadline shutdown, study is %q, want canceled (%+v)", final.Status, final)
	}
	// The stream must have been finished, so a subscriber drains
	// immediately instead of hanging.
	resp, _ := h.get(t, "/api/v1/studies/"+st.ID+"/results")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results after cancel: status %d", resp.StatusCode)
	}
	// And the digest reports the failure state.
	resp, _ = h.get(t, "/api/v1/studies/"+st.ID+"/digest")
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("digest of canceled study: status %d, want 409", resp.StatusCode)
	}
}

// TestConcurrentSubmissions drives N clients into the service at once
// (exercised under -race in CI): all are admitted within the queue
// bound, all streams are byte-identical, and the cache accounts for
// every point lookup.
func TestConcurrentSubmissions(t *testing.T) {
	const n = 8
	spec := testSpecBytes(t)
	want := referenceJSONL(t, 1)
	points := len(testStudy().Points)
	h := newTestServer(t, Config{Workers: 4, MaxActive: 2, QueueDepth: 32, CacheBytes: 32 << 20})

	var wg sync.WaitGroup
	ids := make([]string, n)
	streams := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, data := h.post(t, "/api/v1/studies", spec)
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("client %d: status %d (%s)", i, resp.StatusCode, data)
				return
			}
			var st Status
			if err := json.Unmarshal(data, &st); err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			ids[i] = st.ID
			streams[i] = h.streamResults(t, st.ID)
		}(i)
	}
	wg.Wait()

	var hits, misses int64
	for i := 0; i < n; i++ {
		if ids[i] == "" {
			continue
		}
		if !bytes.Equal(streams[i], want) {
			t.Errorf("client %d stream differs from in-process run", i)
		}
		st := h.waitTerminal(t, ids[i])
		if st.Status != "done" {
			t.Errorf("study %s: %+v", ids[i], st)
		}
		hits += st.CacheHits
		misses += st.CacheMisses
	}
	// Concurrent misses on the same point are possible (both studies
	// compute it), so the split is not deterministic — but every lookup
	// is accounted, and at least the first study's worth must miss while
	// later studies must find something.
	if hits+misses != int64(n*points) {
		t.Errorf("cache lookups = %d hits + %d misses, want %d total", hits, misses, n*points)
	}
	if misses < int64(points) || hits == 0 {
		t.Errorf("implausible cache split: %d hits, %d misses", hits, misses)
	}
}

// TestEventsStream checks the SSE surface: one "result" event per point
// carrying the exact result JSON, then a terminal "done" event.
func TestEventsStream(t *testing.T) {
	h := newTestServer(t, Config{Workers: 2, MaxActive: 1, QueueDepth: 4, CacheBytes: -1})
	st := h.mustSubmit(t, testSpecBytes(t), "")
	resp, data := h.get(t, "/api/v1/studies/"+st.ID+"/events")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events: content type %q", ct)
	}
	wantLines := splitLines(referenceJSONL(t, 1))
	frames := strings.Split(strings.TrimSuffix(string(data), "\n\n"), "\n\n")
	if len(frames) != len(wantLines)+1 {
		t.Fatalf("got %d SSE frames, want %d results + 1 terminal:\n%s", len(frames), len(wantLines), data)
	}
	for i, want := range wantLines {
		frame := frames[i]
		if !strings.HasPrefix(frame, "event: result\n") {
			t.Fatalf("frame %d is not a result event: %q", i, frame)
		}
		if !strings.Contains(frame, "\ndata: "+string(want)) {
			t.Errorf("frame %d data differs from result JSON:\n%s", i, frame)
		}
	}
	if last := frames[len(frames)-1]; !strings.HasPrefix(last, "event: done\n") {
		t.Errorf("terminal frame: %q, want done event", last)
	}
}

// TestSubmitValidation walks the admission error surface.
func TestSubmitValidation(t *testing.T) {
	h := newTestServer(t, Config{Workers: 1, MaxActive: 1, QueueDepth: 4, CacheBytes: -1})
	spec := testSpecBytes(t)
	cases := []struct {
		name  string
		body  []byte
		query string
		code  int
	}{
		{"not json", []byte("{nope"), "", http.StatusBadRequest},
		{"wrong version", []byte(`{"version":99,"name":"x","points":[]}`), "", http.StatusBadRequest},
		{"no points", []byte(`{"version":1,"name":"x","points":[]}`), "", http.StatusBadRequest},
		{"bad seed", spec, "?seed=banana", http.StatusBadRequest},
		{"zero seed", spec, "?seed=0", http.StatusBadRequest},
		{"negative replicas", spec, "?replicas=-3", http.StatusBadRequest},
		{"oversize body", bytes.Repeat([]byte{'x'}, maxSpecBytes+1), "", http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := h.post(t, "/api/v1/studies"+tc.query, tc.body)
			if resp.StatusCode != tc.code {
				t.Errorf("status %d (%s), want %d", resp.StatusCode, data, tc.code)
			}
			var eb errorBody
			if err := json.Unmarshal(data, &eb); err != nil || eb.Error == "" {
				t.Errorf("body is not an error object: %s", data)
			}
		})
	}

	// Unknown study IDs are 404 on every study surface.
	for _, ep := range []string{"", "/points", "/results", "/events", "/digest", "/spec"} {
		resp, _ := h.get(t, "/api/v1/studies/s999999"+ep)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET unknown study%s: status %d, want 404", ep, resp.StatusCode)
		}
	}
}

// TestSubmitRejectsUnrunnablePoints: a point no engine could run is a
// submission error in both modes, behind valid points too. Admitted, a
// local study would fail only once the earlier points had run; a fleet
// study would never end — every lease of the bad point fails on its
// worker, expires, and is granted again, holding a MaxActive slot.
func TestSubmitRejectsUnrunnablePoints(t *testing.T) {
	h := newTestServer(t, Config{Workers: 1, MaxActive: 1, QueueDepth: 4, CacheBytes: -1})
	good := `{"engine":"san","spec":{"N":3,"Replicas":5}},`
	granted := obs.LeasesGranted.Value()
	for _, tc := range []struct{ name, point, want string }{
		{"san n=1", `{"engine":"san","spec":{"N":1}}`, "need n >= 2"},
		{"san crashed id out of range", `{"engine":"san","spec":{"N":3,"Crashed":[9]}}`, "crashed process 9 out of range 1..3"},
		{"san no correct majority", `{"engine":"san","spec":{"N":3,"Crashed":[1,2]}}`, "majority-correct"},
		{"emulation crashed id out of range", `{"engine":"emulation","spec":{"N":3,"Executions":5,"Crashed":[0]}}`, "crashed process 0 out of range 1..3"},
		{"emulation no correct majority", `{"engine":"emulation","spec":{"N":4,"Executions":5,"Crashed":[1,2]}}`, "majority-correct"},
		{"emulation no executions", `{"engine":"emulation","spec":{"N":3}}`, "at least 1 execution"},
		{"unknown scenario", `{"engine":"scenario","spec":{"Name":"no-such"}}`, "unknown scenario"},
		// These two used to be accepted and then kill the process from
		// inside the pool (sanmodel's and fd's constructor panics).
		{"san TM >= TMR", `{"engine":"san","spec":{"N":3,"Replicas":5,"TMR":10,"TM":10}}`, "0 < TM < TMR"},
		{"emulation negative period", `{"engine":"emulation","spec":{"N":3,"Executions":5,"TimeoutT":10,"PeriodTh":-1}}`, "negative heartbeat period"},
		{"emulation negative deadline", `{"engine":"emulation","spec":{"N":3,"Executions":5,"Deadline":-5}}`, "negative execution deadline"},
		{"san negative horizon", `{"engine":"san","spec":{"N":3,"Tmax":-1}}`, "negative horizon"},
	} {
		for _, mode := range []string{"local", "fleet"} {
			body := []byte(`{"v":1,"name":"bad","points":[` + good + tc.point + `]}`)
			resp, data := h.post(t, "/api/v1/studies?mode="+mode, body)
			var eb errorBody
			if err := json.Unmarshal(data, &eb); resp.StatusCode != http.StatusBadRequest || err != nil ||
				!strings.Contains(eb.Error, "point 1") || !strings.Contains(eb.Error, tc.want) {
				t.Errorf("%s, mode=%s: status %d, body %s; want 400 naming point 1 and %q", tc.name, mode, resp.StatusCode, data, tc.want)
			}
		}
	}
	if _, data := h.get(t, "/api/v1/studies"); strings.TrimSpace(string(data)) != "[]" {
		t.Errorf("rejected submissions were registered: %s", data)
	}
	if got := obs.LeasesGranted.Value(); got != granted {
		t.Errorf("leases_granted moved %d -> %d on rejected submissions", granted, got)
	}
}

// TestPanickingPointFailsItsStudyOnly: a work unit that panics takes down
// its own study — status "failed", the unit and the panic message in the
// error, the stream finished — and nothing else: a study running beside
// it completes with the reference bytes, and the service keeps admitting
// and running studies afterwards. (Before the containment the panic
// re-raised on the slot goroutine and ended the process.)
func TestPanickingPointFailsItsStudyOnly(t *testing.T) {
	boom := campaign.NewStudy("boom",
		campaign.SANPoint{N: 3, Replicas: 5},
		campaign.SANPoint{Name: "bad", N: 3, Replicas: 5, Seed: 99},
	)
	points, err := boom.FrozenPoints(campaign.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	boomSpec, err := campaign.EncodeStudy(boom)
	if err != nil {
		t.Fatal(err)
	}

	s := New(Config{Workers: 2, MaxActive: 2, QueueDepth: 4, CacheBytes: -1})
	gate := make(chan struct{})
	s.testGate = gate
	s.testRecord = func(hash string) {
		if hash == points[1].Hash {
			panic("injected point failure")
		}
	}
	ts := httptest.NewServer(s.HTTPServer().Handler)
	h := &testServer{s: s, ts: ts}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		ts.Close()
	})

	// Hold both studies "running" on their slots, then release them
	// together so the panic lands while the good study executes.
	bad := h.mustSubmit(t, boomSpec, "")
	good := h.mustSubmit(t, testSpecBytes(t), "")
	h.waitRunning(t, bad.ID)
	h.waitRunning(t, good.ID)
	// Follow the failing study's events from before it runs: the headers
	// arrive once the handler has read the (empty) fold a first time.
	events, err := http.Get(h.ts.URL + "/api/v1/studies/" + bad.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer events.Body.Close()
	close(gate)

	st := h.waitTerminal(t, bad.ID)
	if st.Status != "failed" ||
		!strings.Contains(st.Error, "work unit 1 panicked") || !strings.Contains(st.Error, "injected point failure") {
		t.Errorf("panicking study ended %q with error %q; want failed, naming unit 1 and the panic", st.Status, st.Error)
	}
	// On its one worker the study folds point 0 before point 1 panics.
	// The live stream carries that line, then ends with the error event.
	if st.Done != 1 {
		t.Errorf("panicking study folded %d points before it failed, want 1", st.Done)
	}
	data, err := io.ReadAll(events.Body)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := json.Marshal(errorBody{Error: st.Error})
	var want strings.Builder
	for i, line := range splitLines(h.streamResults(t, bad.ID)) {
		fmt.Fprintf(&want, "event: result\nid: %d\ndata: %s\n\n", i, line)
	}
	fmt.Fprintf(&want, "event: error\ndata: %s\n\n", msg)
	if string(data) != want.String() {
		t.Errorf("panicking study's events:\n%s\nwant its folded lines, then its error:\n%s", data, want.String())
	}
	if st := h.waitTerminal(t, good.ID); st.Status != "done" || st.Done != 3 {
		t.Errorf("study beside the panic ended %+v, want done with 3 points", st)
	}
	if got, want := h.streamResults(t, good.ID), referenceJSONL(t, 1); !bytes.Equal(got, want) {
		t.Errorf("study beside the panic streamed\n%s\nwant\n%s", got, want)
	}
	if resp, _ := h.get(t, "/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after the panic: %d", resp.StatusCode)
	}
	after := h.mustSubmit(t, testSpecBytes(t), "")
	if st := h.waitTerminal(t, after.ID); st.Status != "done" {
		t.Errorf("study submitted after the panic ended %+v, want done", st)
	}
}

// TestPointsAndSpecEndpoints checks the frozen-point enumeration and
// the verbatim spec echo.
func TestPointsAndSpecEndpoints(t *testing.T) {
	h := newTestServer(t, Config{Workers: 1, MaxActive: 1, QueueDepth: 4, CacheBytes: -1})
	spec := testSpecBytes(t)
	st := h.mustSubmit(t, spec, "")

	_, data := h.get(t, "/api/v1/studies/"+st.ID+"/points")
	var points []campaign.FrozenPoint
	if err := json.Unmarshal(data, &points); err != nil {
		t.Fatalf("points: %v", err)
	}
	want, err := testStudy().FrozenPoints(campaign.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(want) {
		t.Fatalf("points: got %d, want %d", len(points), len(want))
	}
	for i := range want {
		if points[i].Hash != want[i].Hash || points[i].Label != want[i].Label || points[i].Seed != want[i].Seed {
			t.Errorf("point %d = %+v, want %+v", i, points[i], want[i])
		}
	}

	resp, echo := h.get(t, "/api/v1/studies/"+st.ID+"/spec")
	if resp.StatusCode != http.StatusOK || !bytes.Equal(echo, spec) {
		t.Errorf("spec echo differs from submitted bytes")
	}
}

// TestScenariosEndpoint checks the registry listing matches the
// in-process registry.
func TestScenariosEndpoint(t *testing.T) {
	h := newTestServer(t, Config{Workers: 1, MaxActive: 1, QueueDepth: 1, CacheBytes: -1})
	_, data := h.get(t, "/api/v1/scenarios")
	var infos []scenario.Info
	if err := json.Unmarshal(data, &infos); err != nil {
		t.Fatalf("scenarios: %v", err)
	}
	names := scenario.Names()
	if len(infos) != len(names) {
		t.Fatalf("scenarios: got %d, want %d", len(infos), len(names))
	}
	for i, info := range infos {
		if info.Name != names[i] {
			t.Errorf("scenario %d = %q, want %q", i, info.Name, names[i])
		}
	}
}

// TestDigestTooEarly checks the 425 + Retry-After contract while a
// study is still queued or running.
func TestDigestTooEarly(t *testing.T) {
	s := New(Config{Workers: 1, MaxActive: 1, QueueDepth: 2, CacheBytes: -1})
	gate := make(chan struct{})
	s.testGate = gate
	ts := httptest.NewServer(s.HTTPServer().Handler)
	h := &testServer{s: s, ts: ts}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		ts.Close()
	})

	st := h.mustSubmit(t, testSpecBytes(t), "")
	h.waitRunning(t, st.ID)
	resp, _ := h.get(t, "/api/v1/studies/"+st.ID+"/digest")
	if resp.StatusCode != http.StatusTooEarly {
		t.Fatalf("digest while running: status %d, want 425", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("425 without Retry-After header")
	}
	close(gate)
	h.waitTerminal(t, st.ID)
	resp, _ = h.get(t, "/api/v1/studies/"+st.ID+"/digest")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("digest after done: status %d, want 200", resp.StatusCode)
	}
}

// TestIndexAndDebugMounts checks the landing page and the debug mux
// gating.
func TestIndexAndDebugMounts(t *testing.T) {
	withDebug := newTestServer(t, Config{Workers: 1, MaxActive: 1, QueueDepth: 1, CacheBytes: -1, Debug: true})
	resp, body := withDebug.get(t, "/")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("ctsand")) {
		t.Errorf("index page: status %d", resp.StatusCode)
	}
	resp, body = withDebug.get(t, "/debug/vars")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("ctsan.cache_hits")) {
		t.Errorf("debug vars: status %d, body %.200s", resp.StatusCode, body)
	}

	noDebug := newTestServer(t, Config{Workers: 1, MaxActive: 1, QueueDepth: 1, CacheBytes: -1})
	resp, _ = noDebug.get(t, "/debug/vars")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("debug vars without Debug: status %d, want 404", resp.StatusCode)
	}

	// The study listing endpoint returns the orderly history.
	_ = withDebug.mustSubmit(t, testSpecBytes(t), "")
	_, data := withDebug.get(t, "/api/v1/studies")
	var list []Status
	if err := json.Unmarshal(data, &list); err != nil || len(list) != 1 {
		t.Errorf("study list: %v (%s)", err, data)
	}
}

// TestHTTPServerCutsSlowHeadersNotStreams: the server ctsand serves with
// closes a connection whose request headers stop arriving, within the
// header bound, and has no bound that cuts a response: a /results stream
// of a study held running for several times the bound ends with the
// study, carrying every result.
func TestHTTPServerCutsSlowHeadersNotStreams(t *testing.T) {
	s := New(Config{Workers: 1, MaxActive: 1, QueueDepth: 4, CacheBytes: -1})
	hs := s.HTTPServer()
	if hs.ReadHeaderTimeout <= 0 || hs.IdleTimeout <= 0 || hs.MaxHeaderBytes <= 0 || hs.ReadTimeout != 0 || hs.WriteTimeout != 0 {
		t.Fatalf("HTTPServer limits: header %v, idle %v, header bytes %d, read %v, write %v; want the first three set and no read or write timeout",
			hs.ReadHeaderTimeout, hs.IdleTimeout, hs.MaxHeaderBytes, hs.ReadTimeout, hs.WriteTimeout)
	}
	const bound = 300 * time.Millisecond
	hs.ReadHeaderTimeout = bound // the same server at a test's time scale
	gate := make(chan struct{})
	s.testGate = gate
	ts := httptest.NewUnstartedServer(nil)
	ts.Config = hs
	ts.Start()
	h := &testServer{s: s, ts: ts}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		ts.Close()
	})

	st := h.mustSubmit(t, testSpecBytes(t), "")
	h.waitRunning(t, st.ID)
	streamed := make(chan []byte)
	go func() {
		resp, err := http.Get(ts.URL + "/api/v1/studies/" + st.ID + "/results")
		if err != nil {
			t.Error(err)
			streamed <- nil
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Error(err)
		}
		streamed <- body
	}()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: ctsand\r\nX-Half: a"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * bound))
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("connection that stopped mid-header: read %d bytes, %v; want it closed", n, err)
	}
	if took := time.Since(start); took > 3*bound {
		t.Errorf("connection that stopped mid-header closed after %v, bound %v", took, bound)
	}

	time.Sleep(3 * bound) // the stream outlives the header bound several times over
	close(gate)
	if got, want := <-streamed, referenceJSONL(t, 1); !bytes.Equal(got, want) {
		t.Errorf("stream of a study held running past the bound:\n%s\nwant\n%s", got, want)
	}
}
