package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ctsan/campaign"
	"ctsan/internal/obs"
)

// benchServer is a harness without testing.T plumbing for benchmarks.
func benchServer(b *testing.B, cfg Config) (*Server, *httptest.Server) {
	b.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.HTTPServer().Handler)
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		ts.Close()
	})
	return s, ts
}

func benchSpec(b *testing.B) []byte {
	b.Helper()
	spec, err := campaign.EncodeStudy(campaign.NewStudy("bench",
		campaign.SANPoint{N: 3, Replicas: 50},
		campaign.SANPoint{N: 5, Replicas: 50},
		campaign.SANPoint{N: 7, Replicas: 50},
	))
	if err != nil {
		b.Fatal(err)
	}
	return spec
}

// submitAndDrain posts the spec and reads the result stream to
// completion — one full study round-trip over HTTP.
func submitAndDrain(b *testing.B, url string, spec []byte) {
	b.Helper()
	resp, err := http.Post(url+"/api/v1/studies", "application/json", bytes.NewReader(spec))
	if err != nil {
		b.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b.Fatalf("submit: %d (%s)", resp.StatusCode, data)
	}
	var st Status
	if err := json.Unmarshal(data, &st); err != nil {
		b.Fatal(err)
	}
	resp, err = http.Get(url + "/api/v1/studies/" + st.ID + "/results")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
}

// BenchmarkStudyColdHTTP measures a full study round-trip — submit,
// execute, stream — with the result cache disabled: every point is
// simulated.
func BenchmarkStudyColdHTTP(b *testing.B) {
	_, ts := benchServer(b, Config{Workers: 2, MaxActive: 1, QueueDepth: 4, CacheBytes: -1})
	spec := benchSpec(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submitAndDrain(b, ts.URL, spec)
	}
}

// BenchmarkStudyWarmHTTP measures the same round-trip with a warm
// content-addressed cache: every point is served from memory, so the
// difference to BenchmarkStudyColdHTTP is the simulation work the
// cache saves.
func BenchmarkStudyWarmHTTP(b *testing.B) {
	_, ts := benchServer(b, Config{Workers: 2, MaxActive: 1, QueueDepth: 4, CacheBytes: 32 << 20})
	spec := benchSpec(b)
	submitAndDrain(b, ts.URL, spec) // warm the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submitAndDrain(b, ts.URL, spec)
	}
}

// BenchmarkStatusHTTP measures the light request path — status GETs
// against a finished study — across parallel clients; 1/ns-per-op is
// the service's requests/s ceiling on this hardware.
func BenchmarkStatusHTTP(b *testing.B) {
	_, ts := benchServer(b, Config{Workers: 2, MaxActive: 1, QueueDepth: 4, CacheBytes: 32 << 20})
	spec := benchSpec(b)
	resp, err := http.Post(ts.URL+"/api/v1/studies", "application/json", bytes.NewReader(spec))
	if err != nil {
		b.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var st Status
	if err := json.Unmarshal(data, &st); err != nil {
		b.Fatal(err)
	}
	url := ts.URL + "/api/v1/studies/" + st.ID
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := http.Get(url)
			if err != nil {
				b.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	})
}

// BenchmarkFineGridWarmHTTP measures what ROADMAP's north star times on
// a repeated study: a warm resubmission of the 750-point fine grid, from
// the POST to the last result byte, every point a cache hit. Its CPU
// profile is the warm path's.
func BenchmarkFineGridWarmHTTP(b *testing.B) {
	const points = 750
	_, ts := benchServer(b, Config{Workers: 2, MaxActive: 1, QueueDepth: 4, CacheBytes: 64 << 20})
	spec, err := campaign.EncodeStudy(fineGrid(points))
	if err != nil {
		b.Fatal(err)
	}
	submitAndDrain(b, ts.URL, spec) // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submitAndDrain(b, ts.URL, spec)
	}
	b.ReportMetric(float64(b.N*points)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkFineGridColdCacheDir is a cold 750-point fine grid through a
// daemon with a cache directory and 128 KiB of memory: most records are
// evicted while the study runs, and each is appended to the file once.
// syncs/op is the file's fsyncs per study: one per 25 ms slice at most,
// where a spill on eviction made one per evicted record.
func BenchmarkFineGridColdCacheDir(b *testing.B) {
	const points = 750
	spec, err := campaign.EncodeStudy(fineGrid(points))
	if err != nil {
		b.Fatal(err)
	}
	syncs := obs.CheckpointSyncs.Value()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, ts := benchServer(b, Config{Workers: 2, MaxActive: 1, QueueDepth: 4, CacheBytes: 128 << 10})
		if _, err := s.OpenCacheDir(b.TempDir()); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		submitAndDrain(b, ts.URL, spec)
	}
	b.ReportMetric(float64(obs.CheckpointSyncs.Value()-syncs)/float64(b.N), "syncs/op")
	b.ReportMetric(float64(b.N*points)/b.Elapsed().Seconds(), "points/s")
}
