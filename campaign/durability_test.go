package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"ctsan/internal/checkpoint"
	"ctsan/internal/obs"
)

// Durability per time slice (shardWriter): a record is written the moment
// its point completes and fsynced once per syncSlice. These tests drive
// the policy on an injected clock — no sleeps — and model the one
// failure it trades against: a power cut that keeps an arbitrary prefix
// of what was written since the last fsync.

// clock replaces the sink's clock with one that advances by next() on
// every reading, and restores the real one when the test ends.
func clock(t *testing.T, next func() time.Duration) {
	t.Helper()
	at := time.Unix(1_000_000, 0)
	now = func() time.Time { at = at.Add(next()); return at }
	t.Cleanup(func() { now = time.Now })
}

func stepClock(t *testing.T, step time.Duration) {
	t.Helper()
	clock(t, func() time.Duration { return step })
}

func syncs() int64 { return obs.CheckpointSyncs.Value() }

// mustBeSynced fails unless everything store holds has been fsynced:
// Sync is free exactly then.
func mustBeSynced(t *testing.T, store *checkpoint.Store) {
	t.Helper()
	before := syncs()
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}
	if syncs() != before {
		t.Fatal("records were left written but not fsynced")
	}
}

func openStore(t *testing.T) *checkpoint.Store {
	t.Helper()
	store, err := checkpoint.Open(filepath.Join(t.TempDir(), "store.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func TestShardSyncPolicy(t *testing.T) {
	frozen, err := Frozen(shardTestStudy(), WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	points := len(frozen.Points)
	ctx := context.Background()

	t.Run("a point longer than the slice syncs alone", func(t *testing.T) {
		stepClock(t, syncSlice+time.Millisecond)
		store, before, seen := openStore(t), syncs(), 0
		onPoint := func(int, []byte) error {
			// onPoint runs between a record's write and its sync: every
			// earlier record has had its own fsync, this one not yet.
			if got := syncs() - before; got != int64(seen) {
				t.Errorf("point %d reported after %d syncs, want %d", seen, got, seen)
			}
			seen++
			return nil
		}
		if err := RunShardRange(ctx, frozen, 0, points, store, onPoint, WithWorkers(1)); err != nil {
			t.Fatal(err)
		}
		if got := syncs() - before; got != int64(points) {
			t.Fatalf("%d syncs for %d long points, want one each", got, points)
		}
		mustBeSynced(t, store)
	})

	t.Run("a frozen clock syncs once, at Close", func(t *testing.T) {
		stepClock(t, 0)
		store, before := openStore(t), syncs()
		onPoint := func(i int, _ []byte) error {
			if got := syncs() - before; got != 0 {
				t.Errorf("%d syncs by point %d with the clock frozen", got, i)
			}
			return nil
		}
		if err := RunShardRange(ctx, frozen, 0, points, store, onPoint, WithWorkers(1)); err != nil {
			t.Fatal(err)
		}
		if got := syncs() - before; got != 1 {
			t.Fatalf("%d syncs with the clock frozen, want exactly one", got)
		}
		mustBeSynced(t, store)
	})

	t.Run("cancellation syncs what was written", func(t *testing.T) {
		stepClock(t, 0)
		store, before := openStore(t), syncs()
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		onPoint := func(i int, _ []byte) error {
			if i == 1 {
				cancel()
			}
			return nil
		}
		if err := RunShardRange(ctx, frozen, 0, points, store, onPoint, WithWorkers(1)); !errors.Is(err, context.Canceled) {
			t.Fatalf("RunShardRange = %v, want context.Canceled", err)
		}
		if n := len(store.Records()); n < 2 || n == points {
			t.Fatalf("canceled run left %d of %d records", n, points)
		}
		if got := syncs() - before; got != 1 {
			t.Fatalf("%d syncs in a canceled run with the clock frozen, want one", got)
		}
		mustBeSynced(t, store)
	})
}

// TestFailedSyncFailsTheAttempt: a sync that fails mid-range surfaces
// from RunShardRange, the store refuses everything afterwards, and the
// retry — a fresh Open of whatever the file holds, then a resume — ends
// on the uninterrupted run's bytes.
func TestFailedSyncFailsTheAttempt(t *testing.T) {
	frozen, err := Frozen(shardTestStudy(), WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	points := len(frozen.Points)
	ctx := context.Background()
	full := openStore(t)
	if err := RunShardRange(ctx, frozen, 0, points, full, nil, WithWorkers(1)); err != nil {
		t.Fatal(err)
	}

	stepClock(t, syncSlice) // every record syncs
	store := openStore(t)
	path, away := store.Path(), store.Path()+".away"
	written := 0
	onPoint := func(int, []byte) error {
		if written++; written == 3 {
			// The file leaves between the third record's write and its
			// sync, so that sync has nothing to open.
			return os.Rename(path, away)
		}
		return nil
	}
	err = RunShardRange(ctx, frozen, 0, points, store, onPoint, WithWorkers(1))
	if err == nil {
		t.Fatal("RunShardRange succeeded over a failed sync")
	}
	if werr := store.Write([]byte("x")); werr == nil || !errors.Is(err, werr) {
		t.Fatalf("Write after the failed sync = %v, want the failure RunShardRange reported (%v)", werr, err)
	}
	if serr := store.Sync(); serr == nil {
		t.Fatal("Sync after a failed sync succeeded")
	}
	if len(store.Records()) != 3 {
		t.Fatalf("broken store holds %d records, want the 3 written", len(store.Records()))
	}

	if err := os.Rename(away, path); err != nil {
		t.Fatal(err)
	}
	store, err = checkpoint.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	executed := 0
	if err := RunShardRange(ctx, frozen, 0, points, store, func(int, []byte) error { executed++; return nil }, WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	if executed != points-3 {
		t.Fatalf("retry executed %d points, want %d", executed, points-3)
	}
	onDisk, dropped, err := checkpoint.Load(path)
	if err != nil || dropped != 0 || len(onDisk) != points {
		t.Fatalf("retried store: %d records, dropped=%d err=%v", len(onDisk), dropped, err)
	}
	for i, rec := range full.Records()[:3] {
		if !bytes.Equal(onDisk[i], rec) {
			t.Fatalf("record %d differs from the uninterrupted run", i)
		}
	}
	sameRecords(t, frozen, onDisk, full.Records())
}

// sameRecords fails unless two stores hold the same records, byte for
// byte: a store lists them in the order its points completed, which a
// resume changes, so they are compared as sets and as merged output.
func sameRecords(t *testing.T, frozen *Study, got, want [][]byte) {
	t.Helper()
	sorted := func(lines [][]byte) [][]byte {
		return slices.SortedFunc(slices.Values(lines), bytes.Compare)
	}
	if !slices.EqualFunc(sorted(got), sorted(want), bytes.Equal) {
		t.Fatalf("store holds %d records unlike the uninterrupted run's %d", len(got), len(want))
	}
	if _, _, err := MergeShardRecords(frozen, got); err != nil {
		t.Fatal(err)
	}
}

// TestPowerCutAtEveryUnsyncedByte is TestCrashAtEveryByteOfBatch one
// level up. A power cut keeps what the last fsync covered and any prefix
// of what was written after it (the kernel flushes when it likes). Over
// a generated mixed-engine grid, on a clock whose steps make slices of
// one to several records, it takes the store as it stood just before
// every fsync and cuts a copy at every byte length from the synced size
// to the written size: the survivors are the uninterrupted run's records,
// verbatim, and never fewer than the synced ones — so a resume
// re-executes at most the records of one slice. At the cuts that bound
// each case (a record boundary, one byte into a record, mid-record, the
// newline missing) the copy is opened and resumed for real, and must
// merge to the uninterrupted run's bytes.
func TestPowerCutAtEveryUnsyncedByte(t *testing.T) {
	frozen, err := Frozen(NewStudy("power-cut", heterogeneousGrid(7, 9)...), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	hashes, err := StudyPointHashes(frozen)
	if err != nil {
		t.Fatal(err)
	}
	points := len(frozen.Points)
	ctx := context.Background()
	full := openStore(t)
	if err := RunShardRange(ctx, frozen, 0, points, full, nil, WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	want, _, err := MergeShardRecords(frozen, full.Records())
	if err != nil {
		t.Fatal(err)
	}

	// The run that loses power. Steps of 0-12 ms put up to a handful of
	// points in a slice; a 30 ms one is a point that syncs alone.
	r := rand.New(rand.NewPCG(3, 0))
	clock(t, func() time.Duration { return []time.Duration{0, 5, 12, 12, 30}[r.IntN(5)] * time.Millisecond })
	// A moment is the store just before an fsync — a slice at its fullest;
	// every earlier state of that slice is one of its cuts.
	type moment struct {
		content               []byte // the file after the slice's last write
		synced                int    // bytes the previous fsync covered
		syncedRecs, writeRecs int
	}
	var (
		moments            []moment
		m                  moment
		lastSyncs, longest = syncs(), 0
	)
	store := openStore(t)
	observe := func(_ int, line []byte) error {
		// An fsync since the previous point covered everything written
		// up to then, and closed a slice.
		if n := syncs(); n != lastSyncs {
			moments = append(moments, m)
			lastSyncs, m.synced, m.syncedRecs = n, len(m.content), m.writeRecs
		}
		written := len(m.content) + len(line) + 1
		m.writeRecs++
		var err error
		if m.content, err = os.ReadFile(store.Path()); err != nil {
			return err
		}
		if len(m.content) != written {
			return fmt.Errorf("file holds %d bytes after %d were written", len(m.content), written)
		}
		longest = max(longest, m.writeRecs-m.syncedRecs)
		return nil
	}
	if err := RunShardRange(ctx, frozen, 0, points, store, observe, WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	moments = append(moments, m) // the slice Close synced
	if longest < 3 {
		t.Fatalf("longest slice held %d records; the clock script no longer exercises multi-record slices", longest)
	}

	dir := t.TempDir()
	resumes := 0
	for _, m := range moments {
		boundary, rec := m.synced, m.syncedRecs // last record boundary at or before the cut
		for cut := m.synced; cut <= len(m.content); cut++ {
			if rec < m.writeRecs && cut == boundary+len(full.Records()[rec])+1 {
				boundary, rec = cut, rec+1
			}
			what := fmt.Sprintf("after point %d, cut at %d (synced %d, written %d)", m.writeRecs-1, cut, m.synced, len(m.content))
			survivors, intact := checkpoint.Scan(m.content[:cut])
			if intact != boundary || len(survivors) != rec {
				t.Fatalf("%s: %d records in %d bytes survive, want %d in %d", what, len(survivors), intact, rec, boundary)
			}
			for i, line := range survivors {
				if !bytes.Equal(line, full.Records()[i]) {
					t.Fatalf("%s: surviving record %d is not the uninterrupted run's", what, i)
				}
			}
			missing := missingPoints(hashes, 0, points, survivors)
			again := 0
			for _, rec := range full.Records()[:m.writeRecs] {
				if slices.Contains(missing, recordIndex(t, rec)) {
					again++
				}
			}
			if again > m.writeRecs-m.syncedRecs {
				t.Fatalf("%s: %d written points to re-execute, more than the %d written since the last sync", what, again, m.writeRecs-m.syncedRecs)
			}
			torn := cut - boundary
			if torn > 1 && torn != len(full.Records()[rec])/2 && torn != len(full.Records()[rec]) {
				continue
			}
			// Open and resume for real.
			resumes++
			path := filepath.Join(dir, fmt.Sprintf("cut-%d-%d", m.writeRecs, cut))
			if err := os.WriteFile(path, m.content[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			resumed, err := checkpoint.Open(path)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if fi, err := os.Stat(path); err != nil {
				t.Fatal(err)
			} else if fi.Size() != int64(cut-torn) {
				t.Fatalf("%s: Open left %d bytes on disk, want %d", what, fi.Size(), cut-torn)
			}
			executed := 0
			if err := RunShardRange(ctx, frozen, 0, points, resumed, func(int, []byte) error { executed++; return nil }, WithWorkers(1)); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if executed != points-rec {
				t.Fatalf("%s: resume executed %d points, want %d", what, executed, points-rec)
			}
			onDisk, dropped, err := checkpoint.Load(path)
			if err != nil || dropped != 0 {
				t.Fatalf("%s: resumed store dirty: dropped=%d err=%v", what, dropped, err)
			}
			for i := 0; i < rec; i++ {
				if !bytes.Equal(onDisk[i], full.Records()[i]) {
					t.Fatalf("%s: surviving record %d not reused verbatim", what, i)
				}
			}
			got, skipped, err := MergeShardRecords(frozen, onDisk)
			if err != nil || skipped != 0 {
				t.Fatalf("%s: merge: skipped=%d err=%v", what, skipped, err)
			}
			for i := range want {
				if !bytes.Equal(got[i].Result, want[i].Result) || !bytes.Equal(got[i].Digest, want[i].Digest) {
					t.Fatalf("%s: merged point %d differs from the uninterrupted run", what, i)
				}
			}
		}
	}
	t.Logf("%d points in %d slices, longest %d records, %d cuts resumed for real", points, len(moments), longest, resumes)
}

// recordIndex is the grid index a checkpoint line carries.
func recordIndex(t *testing.T, line []byte) int {
	t.Helper()
	rec, err := DecodeShardRecord(line)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Index
}

// tinyGrid is the shape of the benchmark's fine grid — SAN, Emulation and
// Scenario points cycling over n = 3, 5, 7 — at a fraction of a
// millisecond per point.
func tinyGrid(points int) *Study {
	s := NewStudy("tiny-grid")
	for i := 0; i < points; i++ {
		n := []int{3, 5, 7}[(i/3)%3]
		switch i % 3 {
		case 0:
			s.Add(SANPoint{Name: fmt.Sprintf("san-%04d", i), N: n, Replicas: 10})
		case 1:
			s.Add(LatencyPoint{Name: fmt.Sprintf("emu-%04d", i), N: n, Executions: 20})
		case 2:
			p := ScenarioPoint{Name: "paper-baseline", Replicas: 1, Executions: 20}
			if n != 3 {
				p.Name = fmt.Sprintf("baseline-n%d", n)
				p.SpecJSON = []byte(fmt.Sprintf(`{"name":%q,"n":%d}`, p.Name, n))
			}
			s.Add(p)
		}
	}
	return s
}

// TestFineGridSyncsPerSliceNotPerPoint reads the telemetry on the real
// clock: over a grid of tiny points each store counts one append per
// point, and no more syncs than the slices its run lasted — plus the one
// in Close and one of slack for the slice in progress.
func TestFineGridSyncsPerSliceNotPerPoint(t *testing.T) {
	frozen, err := Frozen(tinyGrid(360), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int{{0, 180}, {180, 360}} {
		store := openStore(t)
		appends, before, start := obs.CheckpointAppends.Value(), syncs(), time.Now()
		if err := RunShardRange(context.Background(), frozen, r[0], r[1], store, nil, WithWorkers(1)); err != nil {
			t.Fatal(err)
		}
		elapsed := time.Since(start)
		gotAppends, gotSyncs := obs.CheckpointAppends.Value()-appends, syncs()-before
		t.Logf("range %d:%d: %d appends, %d syncs in %v", r[0], r[1], gotAppends, gotSyncs, elapsed)
		if gotAppends != int64(r[1]-r[0]) {
			t.Errorf("range %d:%d counted %d appends, want one per point", r[0], r[1], gotAppends)
		}
		if limit := int64(elapsed/syncSlice) + 2; gotSyncs < 1 || gotSyncs > limit {
			t.Errorf("range %d:%d: %d syncs in %v, want 1..%d (one per %v slice, not one per point)", r[0], r[1], gotSyncs, elapsed, limit, syncSlice)
		}
		mustBeSynced(t, store)
	}
}
