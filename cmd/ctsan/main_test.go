package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ctsan/campaign"
	"ctsan/internal/checkpoint"
	"ctsan/internal/shard"
)

// TestMain doubles as the re-exec target: when the supervisor under test
// spawns a shard subprocess it launches this very test binary with
// CTSAN_EXEC=1, and we route straight into run() — so the differential
// tests drive real process isolation, real SIGKILLs, and real crash-exit
// codes, not in-process simulations of them.
func TestMain(m *testing.M) {
	if os.Getenv("CTSAN_EXEC") == "1" {
		os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func testStudy() *campaign.Study {
	return campaign.NewStudy("ctsan-test",
		campaign.SANPoint{N: 3, Replicas: 60},
		campaign.LatencyPoint{N: 3, Executions: 25},
		campaign.SANPoint{Name: "pinned", N: 4, Replicas: 40, Seed: 99},
		campaign.LatencyPoint{N: 3, Executions: 25, TimeoutT: 30},
		campaign.SANPoint{N: 5, Replicas: 40, TSend: 0.05},
	)
}

// writeSpec serializes the test study to a spec file.
func writeSpec(t *testing.T) string {
	t.Helper()
	spec, err := campaign.EncodeStudy(testStudy())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "study.json")
	if err := os.WriteFile(path, spec, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// reference is the ground truth: the JSONL an uninterrupted in-process
// run emits for the test study at seed 21.
func reference(t *testing.T) []byte {
	t.Helper()
	results, err := campaign.RunCollect(context.Background(), testStudy(),
		campaign.WithSeed(21), campaign.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, r := range results {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// lockedBuffer is a bytes.Buffer safe for concurrent writers: shard
// supervisors and the subprocess stderr copiers log concurrently, which
// os.Stderr tolerates and a bare bytes.Buffer does not.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// ctsan invokes the CLI in-process (subprocesses still fork for real).
func ctsan(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var (
		out  bytes.Buffer
		errb lockedBuffer
	)
	code = run(context.Background(), args, &out, &errb)
	return code, out.String(), errb.buf.String()
}

func TestShardedRunMatchesSingleProcess(t *testing.T) {
	spec := writeSpec(t)
	want := reference(t)
	for _, shards := range []string{"1", "3"} {
		dir := t.TempDir()
		out := filepath.Join(dir, "results.jsonl")
		code, _, errb := ctsan(t, "run", "-study", spec, "-seed", "21",
			"-shards", shards, "-dir", dir, "-o", out, "-backoff", "10ms")
		if code != 0 {
			t.Fatalf("shards=%s: exit %d\n%s", shards, code, errb)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("shards=%s: merged output differs from the in-process run:\n%s\nwant:\n%s", shards, got, want)
		}
		// A standalone merge over the same checkpoint dir reproduces it too.
		code, stdout, errb := ctsan(t, "merge", "-study", spec, "-seed", "21", "-dir", dir)
		if code != 0 {
			t.Fatalf("merge: exit %d\n%s", code, errb)
		}
		if stdout != string(want) {
			t.Fatalf("shards=%s: standalone merge differs from the in-process run", shards)
		}
	}
}

// TestCrashedShardsAreRetriedWithoutPoisoningMerge injects a panic into
// every shard's first attempt (after one point is durably checkpointed).
// The supervisor must retry each crashed subprocess, the retry must skip
// the checkpointed point, and the merged output must be bit-identical to
// an uninterrupted run — a crash can cost time, never correctness.
func TestCrashedShardsAreRetriedWithoutPoisoningMerge(t *testing.T) {
	spec := writeSpec(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "results.jsonl")
	code, _, errb := ctsan(t, "run", "-study", spec, "-seed", "21",
		"-shards", "2", "-dir", dir, "-o", out,
		"-crash-after", "1", "-retries", "3", "-backoff", "10ms")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, errb)
	}
	if !strings.Contains(errb, "injected crash") {
		t.Fatalf("fault injection did not fire:\n%s", errb)
	}
	if !strings.Contains(errb, "retrying") {
		t.Fatalf("supervisor did not log a retry:\n%s", errb)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if want := reference(t); !bytes.Equal(got, want) {
		t.Fatalf("merge after crashes differs from the in-process run:\n%s\nwant:\n%s", got, want)
	}
}

// TestKillAndResume SIGKILLs a live shard subprocess mid-range, then
// resumes: surviving checkpoint records must be reused verbatim (not
// re-executed) and the final merged output must match an uninterrupted
// run byte for byte.
func TestKillAndResume(t *testing.T) {
	spec := writeSpec(t)
	dir := t.TempDir()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	r := shard.Range{Start: 0, End: 5}
	store := storePath(dir, r)

	// Launch the shard with a post-point throttle so the kill reliably
	// lands between checkpoints, with points still outstanding.
	cmd := exec.Command(self, "shard", "-study", spec, "-seed", "21",
		"-range", r.String(), "-dir", dir, "-workers", "1", "-throttle", "30s")
	cmd.Env = append(os.Environ(), "CTSAN_EXEC=1")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		records, _, err := checkpoint.Load(store)
		if err != nil {
			t.Fatal(err)
		}
		if len(records) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shard produced no checkpoint record in time")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err == nil {
		t.Fatal("SIGKILLed shard reported success")
	}

	before, _, err := checkpoint.Load(store)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) == 0 || len(before) >= 5 {
		t.Fatalf("kill landed outside mid-range: %d of 5 points checkpointed", len(before))
	}

	// Resume under the supervisor: same grid, same dir.
	out := filepath.Join(dir, "results.jsonl")
	code, _, errb := ctsan(t, "run", "-study", spec, "-seed", "21",
		"-shards", "1", "-dir", dir, "-o", out, "-backoff", "10ms")
	if code != 0 {
		t.Fatalf("resume: exit %d\n%s", code, errb)
	}

	// The records that survived the kill are byte-identical in the resumed
	// store — resume appended the missing points, it did not redo or
	// rewrite completed ones.
	after, _, err := checkpoint.Load(store)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 5 {
		t.Fatalf("resumed store holds %d records, want 5", len(after))
	}
	for i := range before {
		if !bytes.Equal(after[i], before[i]) {
			t.Fatalf("record %d changed across resume", i)
		}
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if want := reference(t); !bytes.Equal(got, want) {
		t.Fatalf("kill-and-resume output differs from the in-process run:\n%s\nwant:\n%s", got, want)
	}
}

func TestUsageAndFlagErrors(t *testing.T) {
	if code, _, _ := ctsan(t); code != 2 {
		t.Fatal("no-command invocation must exit 2")
	}
	if code, _, _ := ctsan(t, "bogus"); code != 2 {
		t.Fatal("unknown command must exit 2")
	}
	if code, _, errb := ctsan(t, "shard", "-range", "0:1", "-dir", t.TempDir()); code != 1 ||
		!strings.Contains(errb, "-study") {
		t.Fatalf("missing -study: exit %d, stderr %q", code, errb)
	}
	spec := writeSpec(t)
	if code, _, _ := ctsan(t, "shard", "-study", spec, "-seed", "0",
		"-range", "0:1", "-dir", t.TempDir()); code != 1 {
		t.Fatal("reserved seed 0 must be rejected")
	}
	if code, _, _ := ctsan(t, "shard", "-study", spec, "-range", "3:99",
		"-dir", t.TempDir()); code != 1 {
		t.Fatal("out-of-grid range must be rejected")
	}
}
