package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
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
//
// CTSAN_TEST_SHARD makes re-exec'd `shard` subprocesses misbehave in ways
// a real one cannot be asked to: "lie" exits 0 without executing
// anything, and "hang-once:<marker>" hangs the first time (it creates the
// marker) and runs normally afterwards. The hang is a long sleep, not an
// empty select: a process whose every goroutine blocks forever is a
// deadlock the runtime may detect and exit on (it does on 386), where the
// test needs one that -timeout has to kill.
func TestMain(m *testing.M) {
	if os.Getenv("CTSAN_EXEC") == "1" {
		if mode := os.Getenv("CTSAN_TEST_SHARD"); mode != "" && os.Args[1] == "shard" {
			if mode == "lie" {
				os.Exit(0)
			}
			marker := strings.TrimPrefix(mode, "hang-once:")
			if f, err := os.OpenFile(marker, os.O_CREATE|os.O_EXCL, 0o644); err == nil {
				f.Close()
				time.Sleep(time.Hour)
			}
		}
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

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// ctsan invokes the CLI in-process (subprocesses still fork for real).
func ctsan(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var (
		out  bytes.Buffer
		errb lockedBuffer
	)
	code = run(context.Background(), args, &out, &errb)
	return code, out.String(), errb.String()
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

	// The records that survived the kill are byte-identical in their
	// store, and the checkpoint directory holds exactly one record per
	// point: resume leased only the missing indices, it did not redo or
	// rewrite completed ones.
	after, _, err := checkpoint.Load(store)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("killed shard's store holds %d records after resume, had %d", len(after), len(before))
	}
	for i := range before {
		if !bytes.Equal(after[i], before[i]) {
			t.Fatalf("record %d changed across resume", i)
		}
	}
	if executed := executedIndices(t, dir); !slices.Equal(executed, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("checkpoint dir holds records for indices %v, want each of 0..4 once", executed)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if want := reference(t); !bytes.Equal(got, want) {
		t.Fatalf("kill-and-resume output differs from the in-process run:\n%s\nwant:\n%s", got, want)
	}
}

// executedIndices lists, sorted, the grid index of every record
// checkpointed under dir — one entry per execution of a point.
func executedIndices(t *testing.T, dir string) []int {
	t.Helper()
	lines, err := storedRecords(dir, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var indices []int
	for _, line := range lines {
		rec, err := campaign.DecodeShardRecord(line)
		if err != nil {
			t.Fatal(err)
		}
		indices = append(indices, rec.Index)
	}
	sort.Ints(indices)
	return indices
}

// TestLeaseSizes pins `ctsan run`'s sizing policy on a fresh grid: one
// lease per shard, earlier ones taking the remainder.
func TestLeaseSizes(t *testing.T) {
	for _, tc := range []struct {
		total, shards int
		want          []int
	}{
		{5, 2, []int{3, 2}},
		{6, 3, []int{2, 2, 2}},
		{3, 5, []int{1, 1, 1}}, // more shards than points
		{1, 1, []int{1}},
		{7, 3, []int{3, 2, 2}},
	} {
		size := leaseSizes(tc.total, tc.shards)
		for i, want := range tc.want {
			if got := size(0, 0); got != want {
				t.Errorf("leaseSizes(%d,%d) grant %d = %d points, want %v", tc.total, tc.shards, i, got, tc.want)
			}
		}
	}
}

// TestLeaseSizesCoverGridExactly: the first min(shards, total) grants
// cover every index once with sizes that differ by at most one, and
// later grants (retries of holes) keep the bound.
func TestLeaseSizesCoverGridExactly(t *testing.T) {
	for total := 1; total <= 40; total++ {
		for shards := 1; shards <= 10; shards++ {
			size := leaseSizes(total, shards)
			sum, lo, hi := 0, total, 0
			for i := 0; i < min(shards, total); i++ {
				n := size(0, 0)
				sum, lo, hi = sum+n, min(lo, n), max(hi, n)
			}
			if sum != total || hi-lo > 1 {
				t.Fatalf("leaseSizes(%d,%d): first grants cover %d points, sizes %d..%d", total, shards, sum, lo, hi)
			}
			if n := size(0, 0); n < 1 || n > hi {
				t.Fatalf("leaseSizes(%d,%d): later grant of %d points", total, shards, n)
			}
		}
	}
}

// TestFreshRunLaunchesOneSubprocessPerShard: on an empty checkpoint
// directory -shards N is N `ctsan shard` subprocesses over N contiguous
// ranges (the grid's size when N exceeds it), whatever -procs is.
func TestFreshRunLaunchesOneSubprocessPerShard(t *testing.T) {
	spec := writeSpec(t)
	want := reference(t)
	for _, tc := range []struct{ shards, procs, launches int }{
		{2, 1, 2}, {3, 3, 3}, {4, 2, 4}, {7, 2, 5},
	} {
		dir := t.TempDir()
		out := filepath.Join(dir, "results.jsonl")
		code, _, errb := ctsan(t, "run", "-study", spec, "-seed", "21",
			"-shards", strconv.Itoa(tc.shards), "-procs", strconv.Itoa(tc.procs), "-dir", dir, "-o", out)
		if code != 0 {
			t.Fatalf("shards=%d: exit %d\n%s", tc.shards, code, errb)
		}
		if got := strings.Count(errb, "attempt 1/3 starting"); got != tc.launches {
			t.Errorf("shards=%d procs=%d: %d subprocesses launched, want %d\n%s", tc.shards, tc.procs, got, tc.launches, errb)
		}
		if stores, _ := filepath.Glob(filepath.Join(dir, "shard-*.jsonl")); len(stores) != tc.launches {
			t.Errorf("shards=%d: %d checkpoint stores, want %d", tc.shards, len(stores), tc.launches)
		}
		if got, _ := os.ReadFile(out); !bytes.Equal(got, want) {
			t.Errorf("shards=%d: output differs from the in-process run", tc.shards)
		}
	}
}

// TestRunResumeSkipsCheckpointedPoints: a run over a directory that
// already holds every record launches nothing and re-emits the same
// bytes; over one that holds some, it leases only the rest.
func TestRunResumeSkipsCheckpointedPoints(t *testing.T) {
	spec := writeSpec(t)
	want := reference(t)
	dir := t.TempDir()
	// Points 1:3 are checkpointed by a standalone shard first.
	if code, _, errb := ctsan(t, "shard", "-study", spec, "-seed", "21", "-range", "1:3", "-dir", dir); code != 0 {
		t.Fatalf("shard: exit %d\n%s", code, errb)
	}
	out := filepath.Join(dir, "results.jsonl")
	runIt := func() string {
		code, _, errb := ctsan(t, "run", "-study", spec, "-seed", "21", "-shards", "1", "-dir", dir, "-o", out)
		if code != 0 {
			t.Fatalf("run: exit %d\n%s", code, errb)
		}
		if got, _ := os.ReadFile(out); !bytes.Equal(got, want) {
			t.Fatalf("resumed output differs from the in-process run")
		}
		if executed := executedIndices(t, dir); !slices.Equal(executed, []int{0, 1, 2, 3, 4}) {
			t.Fatalf("indices executed so far: %v, want each of 0..4 once", executed)
		}
		return errb
	}
	errb := runIt()
	if !strings.Contains(errb, "2 of 5 points already checkpointed") ||
		!strings.Contains(errb, "shard 0:1:") || !strings.Contains(errb, "shard 3:5:") || strings.Contains(errb, "shard 1:") {
		t.Fatalf("first resume did not lease exactly 0:1 and 3:5:\n%s", errb)
	}
	if errb = runIt(); !strings.Contains(errb, "5 of 5 points already checkpointed") || strings.Contains(errb, "starting") {
		t.Fatalf("run over a complete directory launched a shard:\n%s", errb)
	}
}

// TestRunTrustsCheckpointOverExitStatus: the records on disk, not the
// subprocess's exit status, decide whether a lease is fulfilled — in
// both directions.
func TestRunTrustsCheckpointOverExitStatus(t *testing.T) {
	spec := writeSpec(t)
	// The shard panics right after persisting its last point: non-zero
	// exit, complete checkpoint, no retry.
	dir := t.TempDir()
	out := filepath.Join(dir, "results.jsonl")
	code, _, errb := ctsan(t, "run", "-study", spec, "-seed", "21",
		"-shards", "1", "-dir", dir, "-o", out, "-crash-after", "5")
	if code != 0 || !strings.Contains(errb, "injected crash") || strings.Contains(errb, "retrying") {
		t.Fatalf("crash after the last checkpoint: exit %d\n%s", code, errb)
	}
	if got, _ := os.ReadFile(out); !bytes.Equal(got, reference(t)) {
		t.Fatal("output differs from the in-process run")
	}

	// The inverse: a clean exit that checkpointed nothing is a failure,
	// retried and eventually fatal.
	t.Setenv("CTSAN_TEST_SHARD", "lie")
	dir = t.TempDir()
	code, _, errb = ctsan(t, "run", "-study", spec, "-seed", "21",
		"-shards", "1", "-dir", dir, "-o", filepath.Join(dir, "results.jsonl"), "-retries", "3", "-backoff", "1ms")
	if code != 1 || !strings.Contains(errb, "shard 0:5: failed after 4 attempts") || !strings.Contains(errb, "checkpoint is incomplete") {
		t.Fatalf("lying shard: exit %d\n%s", code, errb)
	}
	if got := strings.Count(errb, "starting"); got != 4 {
		t.Fatalf("lying shard attempted %d times, want 4\n%s", got, errb)
	}
	if _, err := os.Stat(filepath.Join(dir, "results.jsonl")); err == nil {
		t.Fatal("a failed run wrote a results file")
	}
}

// TestRunReportsLowestIndexFailure: when several shards exhaust their
// attempts the error names the one lowest in the grid.
func TestRunReportsLowestIndexFailure(t *testing.T) {
	spec := writeSpec(t)
	t.Setenv("CTSAN_TEST_SHARD", "lie")
	dir := t.TempDir()
	code, _, errb := ctsan(t, "run", "-study", spec, "-seed", "21", "-shards", "5", "-procs", "5",
		"-dir", dir, "-o", filepath.Join(dir, "results.jsonl"), "-retries", "0")
	if code != 1 || !strings.Contains(errb, "ctsan run: shard 0:1: failed after 1 attempts") {
		t.Fatalf("exit %d\n%s", code, errb)
	}
}

// TestRunTimeoutBoundsAttempt: a hung shard is killed at -timeout and
// its range leased again.
func TestRunTimeoutBoundsAttempt(t *testing.T) {
	spec := writeSpec(t)
	dir := t.TempDir()
	t.Setenv("CTSAN_TEST_SHARD", "hang-once:"+filepath.Join(dir, "hung"))
	out := filepath.Join(dir, "results.jsonl")
	code, _, errb := ctsan(t, "run", "-study", spec, "-seed", "21", "-shards", "1",
		"-dir", dir, "-o", out, "-timeout", "1s", "-retries", "5", "-backoff", "1ms")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, errb)
	}
	if !strings.Contains(errb, "attempt 1 failed (signal: killed)") || !strings.Contains(errb, "attempt 2/6 starting") {
		t.Fatalf("hung shard was not killed and retried:\n%s", errb)
	}
	if got, _ := os.ReadFile(out); !bytes.Equal(got, reference(t)) {
		t.Fatal("output differs from the in-process run")
	}
}

// TestRunHonorsCancellation: cancellation cuts a retry backoff short.
func TestRunHonorsCancellation(t *testing.T) {
	spec := writeSpec(t)
	t.Setenv("CTSAN_TEST_SHARD", "lie")
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	var errb lockedBuffer
	exit := make(chan int, 1)
	start := time.Now()
	go func() {
		exit <- run(ctx, []string{"run", "-study", spec, "-seed", "21", "-shards", "1",
			"-dir", dir, "-o", filepath.Join(dir, "results.jsonl"), "-backoff", "1h"}, io.Discard, &errb)
	}()
	for !strings.Contains(errb.String(), "retrying in 1h") {
		if time.Since(start) > 60*time.Second {
			t.Fatalf("supervisor never reached its backoff:\n%s", errb.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	select {
	case code := <-exit:
		if code != 130 || !strings.Contains(errb.String(), "ctsan run: interrupted") {
			t.Fatalf("exit %d, want 130 and \"interrupted\"\n%s", code, errb.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not interrupt the backoff sleep")
	}
}

// TestMergeReportsSkippedRecordsOnStderr: merge's diagnostics go to the
// injected stderr. A record whose CRC is damaged is skipped, the shard
// re-run appends a fresh one, and merge says so while still reproducing
// the reference bytes.
func TestMergeReportsSkippedRecordsOnStderr(t *testing.T) {
	spec := writeSpec(t)
	dir := t.TempDir()
	shardIt := func() {
		if code, _, errb := ctsan(t, "shard", "-study", spec, "-seed", "21", "-range", "0:5", "-dir", dir); code != 0 {
			t.Fatalf("shard: exit %d\n%s", code, errb)
		}
	}
	shardIt()
	store := storePath(dir, shard.Range{Start: 0, End: 5})
	data, err := os.ReadFile(store)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one hex digit of the third record's CRC.
	lines := bytes.SplitAfter(data, []byte{'\n'})
	crc := bytes.Index(lines[2], []byte(`"crc":"`)) + len(`"crc":"`)
	lines[2][crc] ^= 1
	if err := os.WriteFile(store, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	shardIt() // re-executes index 2 only

	code, stdout, errb := ctsan(t, "merge", "-study", spec, "-seed", "21", "-dir", dir)
	if code != 0 {
		t.Fatalf("merge: exit %d\n%s", code, errb)
	}
	if !strings.Contains(errb, "ctsan merge: skipped 1 stale, duplicate, or corrupt records") {
		t.Fatalf("merge did not report the damaged record on the injected stderr: %q", errb)
	}
	if stdout != string(reference(t)) {
		t.Fatal("merge output differs from the in-process run")
	}
	// -o reports through the same stream, and flag errors do too.
	out := filepath.Join(dir, "merged.jsonl")
	if code, _, errb = ctsan(t, "merge", "-study", spec, "-seed", "21", "-dir", dir, "-o", out); code != 0 ||
		!strings.Contains(errb, "skipped 1") || !strings.Contains(errb, "merged 5 points into "+out) {
		t.Fatalf("merge -o: exit %d, stderr %q", code, errb)
	}
	if code, _, errb = ctsan(t, "merge", "-bogus"); code != 2 || !strings.Contains(errb, "flag provided but not defined") {
		t.Fatalf("merge -bogus: exit %d, stderr %q", code, errb)
	}
}

// TestUsageAndFlagErrors: a missing required flag is a usage error that
// names it; a range the grid does not have is a failure of the run. (The
// per-command -h / unknown-flag / -seed 0 contract is
// TestCommandTableConformance.)
func TestUsageAndFlagErrors(t *testing.T) {
	spec := writeSpec(t)
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"shard", "-range", "0:1", "-dir", t.TempDir()}, 2, "-study is required"},
		{[]string{"shard", "-study", spec}, 2, "-range and -dir are required"},
		{[]string{"run", "-study", spec}, 2, "-dir and -o are required"},
		{[]string{"merge", "-study", spec}, 2, "-dir is required"},
		{[]string{"shard", "-study", spec, "-range", "3:99", "-dir", t.TempDir()}, 1, "outside study of 5 points"},
	} {
		if code, _, errb := ctsan(t, tc.args...); code != tc.code || !strings.Contains(errb, tc.want) {
			t.Errorf("ctsan %v: exit %d, stderr %q; want %d mentioning %q", tc.args, code, errb, tc.code, tc.want)
		}
	}
}

// TestRunSingleSamplePoints: points that keep exactly one sample — one
// SAN replica, one emulated execution — used to fail `ctsan run` after
// three attempts ("encode result: json: unsupported value: +Inf": the
// undefined confidence interval of one sample). They run, first attempt,
// and report ci90_ms 0.
func TestRunSingleSamplePoints(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "tiny.json")
	if err := os.WriteFile(spec, []byte(`{"v":1,"name":"tiny","points":[
		{"engine":"san","spec":{"Name":"a","N":3,"Replicas":1}},
		{"engine":"emulation","spec":{"Name":"b","N":3,"Executions":1}}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "results.jsonl")
	code, _, errb := ctsan(t, "run", "-study", spec, "-shards", "1", "-dir", filepath.Join(dir, "ck"), "-o", out, "-backoff", "10ms")
	if code != 0 || strings.Contains(errb, "retrying") {
		t.Fatalf("exit %d\n%s", code, errb)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(got), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("%d result lines, want 2:\n%s", len(lines), got)
	}
	for _, line := range lines {
		if !bytes.Contains(line, []byte(`"latency":{"n":1,`)) || !bytes.Contains(line, []byte(`"ci90_ms":0,`)) {
			t.Errorf("result without n=1 and ci90_ms=0: %s", line)
		}
	}
}
