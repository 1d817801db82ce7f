package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"

	"ctsan/campaign"
)

// fineGrid is the benchmark's fine grid (benchmark/workloads.go): tiny
// points cycling SAN / Emulation / Scenario over n = 3, 5, 7, so that
// what a study costs around its engines shows.
func fineGrid(points int) *campaign.Study {
	s := campaign.NewStudy("fine-grid")
	for i := 0; i < points; i++ {
		n := []int{3, 5, 7}[(i/3)%3]
		switch i % 3 {
		case 0:
			s.Add(campaign.SANPoint{Name: fmt.Sprintf("san-%04d", i), N: n, Replicas: 20})
		case 1:
			s.Add(campaign.LatencyPoint{Name: fmt.Sprintf("emu-%04d", i), N: n, Executions: 50})
		case 2:
			p := campaign.ScenarioPoint{Name: "paper-baseline", Replicas: 1, Executions: 50}
			if n != 3 {
				p.Name = fmt.Sprintf("baseline-n%d", n)
				p.SpecJSON = []byte(fmt.Sprintf(`{"name":%q,"n":%d}`, p.Name, n))
			}
			s.Add(p)
		}
	}
	return s
}

// submitAndRead posts spec and reads the study's result stream to its
// end.
func submitAndRead(tb testing.TB, url string, spec []byte, query string) []byte {
	tb.Helper()
	resp, err := http.Post(url+"/api/v1/studies"+query, "application/json", bytes.NewReader(spec))
	if err != nil {
		tb.Fatal(err)
	}
	var st Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		tb.Fatalf("submit: %d, %v", resp.StatusCode, err)
	}
	resp, err = http.Get(url + "/api/v1/studies/" + st.ID + "/results")
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// TestConcurrentStreamsOfOneStudyAgree: any number of subscribers replay
// one study's result lines at once, and every stream is the bytes of the
// cold in-process run. The ledger's lines are shared by all of them: a
// subscriber that wrote its newline into a line's spare capacity raced
// every other one (go test -race).
func TestConcurrentStreamsOfOneStudyAgree(t *testing.T) {
	h := newTestServer(t, Config{Workers: 2, MaxActive: 1, QueueDepth: 4, CacheBytes: 32 << 20})
	want := referenceJSONL(t, 1)
	for _, warm := range []bool{false, true} {
		st := h.mustSubmit(t, testSpecBytes(t), "")
		h.waitTerminal(t, st.ID)
		const readers = 6
		streams := make([][]byte, readers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for r := range streams {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				resp, err := http.Get(h.ts.URL + "/api/v1/studies/" + st.ID + "/results")
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				streams[r], _ = io.ReadAll(resp.Body)
			}()
		}
		close(start)
		wg.Wait()
		for r, got := range streams {
			if !bytes.Equal(got, want) {
				t.Errorf("warm=%v: stream %d of %d concurrent readers differs from the cold run:\n got: %s\nwant: %s", warm, r, readers, got, want)
			}
		}
	}
}

// TestRenamedResubmissionIsItsColdRun: a resubmission under a study
// name json.Marshal escapes — served wholly from the cache, which holds
// the results under the first study's name — streams the bytes of a
// cold in-process run of the renamed spec, point labels that need
// escaping included — local and fleet-dispatched alike.
func TestRenamedResubmissionIsItsColdRun(t *testing.T) {
	h := newTestServer(t, Config{Workers: 2, MaxActive: 1, QueueDepth: 4, CacheBytes: 32 << 20})
	study := testStudy()
	study.Points[0] = campaign.SANPoint{Name: "<label> \u2028é", N: 3, Replicas: 30}
	spec := func(name string) []byte {
		study.Name = name
		spec, err := campaign.EncodeStudy(study)
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	h.waitTerminal(t, h.mustSubmit(t, spec("first"), "").ID)

	renamed := spec("a<b&c \"quoted\" \\ é \x01")
	decoded, err := campaign.DecodeStudy(renamed)
	if err != nil {
		t.Fatal(err)
	}
	want := jsonl(t, decoded, campaign.WithSeed(1), campaign.WithWorkers(1))
	// A fleet study preloads the hits as records of its own, and streams
	// them without a lease.
	for _, query := range []string{"", "?mode=fleet"} {
		st := h.mustSubmit(t, renamed, query)
		if got := h.streamResults(t, st.ID); !bytes.Equal(got, want) {
			t.Errorf("renamed warm stream (%q) differs from its cold run:\n got: %s\nwant: %s", query, got, want)
		}
		if st := h.waitTerminal(t, st.ID); st.CacheHits != int64(len(study.Points)) {
			t.Errorf("renamed resubmission (%q): %d cache hits, want %d", query, st.CacheHits, len(study.Points))
		}
	}
}

// TestResubmissionReusesSpecAndGrid: the spec bytes of a retained study
// are decoded once, and frozen once per seed and replica count; other
// bytes are decoded anew.
func TestResubmissionReusesSpecAndGrid(t *testing.T) {
	h := newTestServer(t, Config{Workers: 2, MaxActive: 1, QueueDepth: 8, CacheBytes: 32 << 20})
	spec := testSpecBytes(t)
	lookup := func(id string) *study {
		h.s.mu.Lock()
		defer h.s.mu.Unlock()
		return h.s.studies[id]
	}
	first := lookup(h.mustSubmit(t, spec, "").ID)
	again := lookup(h.mustSubmit(t, bytes.Clone(spec), "").ID)
	seed2 := lookup(h.mustSubmit(t, spec, "?seed=2").ID)
	other := lookup(h.mustSubmit(t, append(bytes.Clone(spec), '\n'), "").ID)
	if again.spec != first.spec || again.frozen != first.frozen {
		t.Error("a resubmission of the same bytes, seed and replicas decoded or froze its grid again")
	}
	if seed2.spec != first.spec || seed2.frozen == first.frozen {
		t.Error("the same bytes at another seed must share the decoded spec and freeze their own grid")
	}
	if other.spec == first.spec {
		t.Error("other spec bytes shared a decoded spec")
	}
	if n := len(h.s.specs[first.specText]); n != 2 {
		t.Errorf("the spec indexes %d studies, want one per seed (2)", n)
	}
	for _, st := range []*study{first, again, seed2, other} {
		h.waitTerminal(t, st.id)
	}
}

// TestWarmResubmitAllocsPerPoint holds what a cache hit costs in
// allocations: a warm resubmission of the 750-point fine grid over HTTP
// — submit, run, stream to the end — allocates at most 20 objects per
// point, HTTP included (59.4 when a hit decoded the record, the result
// JSON and the spec, froze and hashed the grid twice and marshaled the
// result again).
func TestWarmResubmitAllocsPerPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 750-point fine grid")
	}
	const points, budget = 750, 20
	h := newTestServer(t, Config{Workers: 2, MaxActive: 1, QueueDepth: 4, CacheBytes: 64 << 20})
	spec, err := campaign.EncodeStudy(fineGrid(points))
	if err != nil {
		t.Fatal(err)
	}
	cold := submitAndRead(t, h.ts.URL, spec, "")
	allocs := testing.AllocsPerRun(3, func() {
		if warm := submitAndRead(t, h.ts.URL, spec, ""); !bytes.Equal(warm, cold) {
			t.Fatal("warm resubmission differs from the cold run")
		}
	})
	if per := allocs / points; per > budget {
		t.Errorf("a warm resubmission allocates %.1f objects per point, want at most %d", per, budget)
	} else {
		t.Logf("a warm resubmission allocates %.1f objects per point", per)
	}
}
