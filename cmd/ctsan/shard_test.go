package main

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

	"ctsan/campaign"
	"ctsan/internal/checkpoint"
	"ctsan/internal/obs"
	"ctsan/internal/shard"
)

// A shard's durability per time slice (checkpointRange): a record is
// written the moment its point completes and fsynced once per checkpoint.SyncSlice.
// These tests drive the policy on an injected clock — no sleeps — and
// model the one failure it trades against: a power cut that keeps an
// arbitrary prefix of what was written since the last fsync.

// clock replaces the shard's clock with one that advances by next() on
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

// openStore opens a fresh store and returns it with its path.
func openStore(t *testing.T) (*checkpoint.Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.jsonl")
	store, err := checkpoint.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return store, path
}

// reopenStore opens the store file at path as a restarted shard does:
// the store, and the records its one read of the file found.
func reopenStore(path string) (*checkpoint.Store, [][]byte, error) {
	var held [][]byte
	store, err := checkpoint.OpenEach(path, func(_ int64, line []byte) { held = append(held, line) })
	return store, held, err
}

// storeLines reads the records of the store file at path, as a merge or
// a resume does: a store keeps in memory only what Open found. Every
// line must be a shard record.
func storeLines(t *testing.T, path string) [][]byte {
	t.Helper()
	lines, dropped, err := checkpoint.Load(path)
	if err != nil || dropped != 0 {
		t.Fatalf("load %s: dropped=%d err=%v", path, dropped, err)
	}
	for _, line := range lines {
		recordIndex(t, line)
	}
	return lines
}

// recordIndex is the grid index a checkpoint line carries.
func recordIndex(t *testing.T, line []byte) int {
	t.Helper()
	rec, err := campaign.DecodeShardRecord(line)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Index
}

// sameRecords fails unless two stores hold the same records, byte for
// byte: a store lists them in the order its points completed, which a
// resume changes, so they are compared as sets and as merged output.
func sameRecords(t *testing.T, frozen *campaign.Study, got, want [][]byte) {
	t.Helper()
	sorted := func(lines [][]byte) [][]byte {
		return slices.SortedFunc(slices.Values(lines), bytes.Compare)
	}
	if !slices.EqualFunc(sorted(got), sorted(want), bytes.Equal) {
		t.Fatalf("store holds %d records unlike the uninterrupted run's %d", len(got), len(want))
	}
	if _, _, err := campaign.MergeShardRecords(frozen, got); err != nil {
		t.Fatal(err)
	}
}

// frozenTestStudy is the test study frozen at seed 21, and the whole
// grid as one range.
func frozenTestStudy(t *testing.T) (*campaign.Study, shard.Range) {
	t.Helper()
	frozen, err := campaign.Frozen(testStudy(), campaign.WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	return frozen, shard.Range{Start: 0, End: len(frozen.Points)}
}

var oneWorker = campaign.WithWorkers(1)

func TestShardSyncPolicy(t *testing.T) {
	frozen, all := frozenTestStudy(t)
	points := all.Len()
	ctx := context.Background()

	t.Run("a point longer than the slice syncs alone", func(t *testing.T) {
		stepClock(t, checkpoint.SyncSlice+time.Millisecond)
		store, _ := openStore(t)
		before, seen := syncs(), 0
		onPoint := func(int, []byte) error {
			// onPoint runs between a record's write and its sync: every
			// earlier record has had its own fsync, this one not yet.
			if got := syncs() - before; got != int64(seen) {
				t.Errorf("point %d reported after %d syncs, want %d", seen, got, seen)
			}
			seen++
			return nil
		}
		if err := checkpointRange(ctx, frozen, all, nil, store, onPoint, oneWorker); err != nil {
			t.Fatal(err)
		}
		if got := syncs() - before; got != int64(points) {
			t.Fatalf("%d syncs for %d long points, want one each", got, points)
		}
		mustBeSynced(t, store)
	})

	t.Run("a frozen clock syncs once, at Close", func(t *testing.T) {
		stepClock(t, 0)
		store, _ := openStore(t)
		before := syncs()
		onPoint := func(i int, _ []byte) error {
			if got := syncs() - before; got != 0 {
				t.Errorf("%d syncs by point %d with the clock frozen", got, i)
			}
			return nil
		}
		if err := checkpointRange(ctx, frozen, all, nil, store, onPoint, oneWorker); err != nil {
			t.Fatal(err)
		}
		if got := syncs() - before; got != 1 {
			t.Fatalf("%d syncs with the clock frozen, want exactly one", got)
		}
		mustBeSynced(t, store)
	})

	t.Run("cancellation syncs what was written", func(t *testing.T) {
		stepClock(t, 0)
		store, path := openStore(t)
		before := syncs()
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		onPoint := func(i int, _ []byte) error {
			if i == 1 {
				cancel()
			}
			return nil
		}
		if err := checkpointRange(ctx, frozen, all, nil, store, onPoint, oneWorker); !errors.Is(err, context.Canceled) {
			t.Fatalf("checkpointRange = %v, want context.Canceled", err)
		}
		if n := len(storeLines(t, path)); n < 2 || n == points {
			t.Fatalf("canceled run left %d of %d records", n, points)
		}
		if got := syncs() - before; got != 1 {
			t.Fatalf("%d syncs in a canceled run with the clock frozen, want one", got)
		}
		mustBeSynced(t, store)
	})
}

// TestFailedSyncFailsTheAttempt: a sync that fails mid-range surfaces
// from checkpointRange, the store refuses everything afterwards, and the
// retry — a fresh Open of whatever the file holds, then a resume — ends
// on the uninterrupted run's bytes.
func TestFailedSyncFailsTheAttempt(t *testing.T) {
	frozen, all := frozenTestStudy(t)
	points := all.Len()
	ctx := context.Background()
	full, fullPath := openStore(t)
	if err := checkpointRange(ctx, frozen, all, nil, full, nil, oneWorker); err != nil {
		t.Fatal(err)
	}
	fullLines := storeLines(t, fullPath)

	stepClock(t, checkpoint.SyncSlice) // every record syncs
	store, path := openStore(t)
	away := path + ".away"
	written := 0
	onPoint := func(int, []byte) error {
		if written++; written == 3 {
			// The file leaves between the third record's write and its
			// sync, so that sync has nothing to open.
			return os.Rename(path, away)
		}
		return nil
	}
	err := checkpointRange(ctx, frozen, all, nil, store, onPoint, oneWorker)
	if err == nil {
		t.Fatal("checkpointRange succeeded over a failed sync")
	}
	if werr := store.Write([]byte("x")); werr == nil || !errors.Is(err, werr) {
		t.Fatalf("Write after the failed sync = %v, want the failure checkpointRange reported (%v)", werr, err)
	}
	if serr := store.Sync(); serr == nil {
		t.Fatal("Sync after a failed sync succeeded")
	}
	if n := len(storeLines(t, away)); n != 3 {
		t.Fatalf("broken store's file holds %d records, want the 3 written", n)
	}

	if err := os.Rename(away, path); err != nil {
		t.Fatal(err)
	}
	store, held, err := reopenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	executed := 0
	if err := checkpointRange(ctx, frozen, all, held, store, func(int, []byte) error { executed++; return nil }, oneWorker); err != nil {
		t.Fatal(err)
	}
	if executed != points-3 {
		t.Fatalf("retry executed %d points, want %d", executed, points-3)
	}
	onDisk, dropped, err := checkpoint.Load(path)
	if err != nil || dropped != 0 || len(onDisk) != points {
		t.Fatalf("retried store: %d records, dropped=%d err=%v", len(onDisk), dropped, err)
	}
	for i, rec := range fullLines[:3] {
		if !bytes.Equal(onDisk[i], rec) {
			t.Fatalf("record %d differs from the uninterrupted run", i)
		}
	}
	sameRecords(t, frozen, onDisk, fullLines)
}

// partitionJSON is an inline n=5 scenario with a crash, a partition, a
// workload phase, a heal, a recovery and a lossy link.
const partitionJSON = `{"name":"inline-faults","n":5,"timeout_t":30,"events":[
	{"kind":"crash","at":60,"p":2},
	{"kind":"partition","at":120,"groups":[[1,2],[3,4,5]]},
	{"kind":"workload","at":150,"gap":4,"label":"burst"},
	{"kind":"heal","at":260},
	{"kind":"recover","at":300,"p":2},
	{"kind":"link","at":320,"until":500,"from":1,"to":3,"loss":0.2,"extra":{"kind":"exp","mean":1}}]}`

// mixedGrid is nine points of all three engines, of unequal record
// sizes: SAN points with and without the heartbeat detector, Emulation
// points of classes 1 and 3, and a fault-injection Scenario point twice.
func mixedGrid() *campaign.Study {
	faults := campaign.ScenarioPoint{Name: "inline-faults", SpecJSON: []byte(partitionJSON), Replicas: 2, Executions: 40}
	return campaign.NewStudy("power-cut",
		campaign.SANPoint{N: 3, Replicas: 6, TMR: 30, TM: 2, Tmax: 1e5},
		faults,
		campaign.LatencyPoint{N: 5, Executions: 15, TimeoutT: 30},
		campaign.LatencyPoint{N: 5, Executions: 19, TimeoutT: 30},
		campaign.SANPoint{N: 3, Replicas: 11},
		campaign.LatencyPoint{N: 7, Executions: 15},
		campaign.SANPoint{N: 7, Replicas: 15},
		faults,
		campaign.LatencyPoint{N: 5, Executions: 15, TimeoutT: 30},
	)
}

// TestPowerCutAtEveryUnsyncedByte is TestCrashAtEveryByteOfBatch one
// level up. A power cut keeps what the last fsync covered and any prefix
// of what was written after it (the kernel flushes when it likes). Over
// a mixed-engine grid, on a clock whose steps make slices of one to
// several records, it takes the store as it stood just before every
// fsync and cuts a copy at every byte length from the synced size to the
// written size: the survivors are the uninterrupted run's records,
// verbatim, and never fewer than the synced ones — so a resume
// re-executes at most the records of one slice. At the cuts that bound
// each case (a record boundary, one byte into a record, mid-record, the
// newline missing) the copy is opened and resumed for real, and must
// merge to the uninterrupted run's bytes.
func TestPowerCutAtEveryUnsyncedByte(t *testing.T) {
	frozen, err := campaign.Frozen(mixedGrid(), campaign.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	hashes, err := campaign.StudyPointHashes(frozen)
	if err != nil {
		t.Fatal(err)
	}
	points := len(frozen.Points)
	all := shard.Range{Start: 0, End: points}
	ctx := context.Background()
	full, fullPath := openStore(t)
	if err := checkpointRange(ctx, frozen, all, nil, full, nil, oneWorker); err != nil {
		t.Fatal(err)
	}
	fullLines := storeLines(t, fullPath)
	want, _, err := campaign.MergeShardRecords(frozen, fullLines)
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
	store, storePath := openStore(t)
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
		if m.content, err = os.ReadFile(storePath); err != nil {
			return err
		}
		if len(m.content) != written {
			return fmt.Errorf("file holds %d bytes after %d were written", len(m.content), written)
		}
		longest = max(longest, m.writeRecs-m.syncedRecs)
		return nil
	}
	if err := checkpointRange(ctx, frozen, all, nil, store, observe, oneWorker); err != nil {
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
			if rec < m.writeRecs && cut == boundary+len(fullLines[rec])+1 {
				boundary, rec = cut, rec+1
			}
			what := fmt.Sprintf("after point %d, cut at %d (synced %d, written %d)", m.writeRecs-1, cut, m.synced, len(m.content))
			survivors, intact := checkpoint.Scan(m.content[:cut])
			if intact != boundary || len(survivors) != rec {
				t.Fatalf("%s: %d records in %d bytes survive, want %d in %d", what, len(survivors), intact, rec, boundary)
			}
			for i, line := range survivors {
				if !bytes.Equal(line, fullLines[i]) {
					t.Fatalf("%s: surviving record %d is not the uninterrupted run's", what, i)
				}
			}
			missing := missingPoints(hashes, all, survivors)
			again := 0
			for _, rec := range fullLines[:m.writeRecs] {
				if slices.Contains(missing, recordIndex(t, rec)) {
					again++
				}
			}
			if again > m.writeRecs-m.syncedRecs {
				t.Fatalf("%s: %d written points to re-execute, more than the %d written since the last sync", what, again, m.writeRecs-m.syncedRecs)
			}
			torn := cut - boundary
			if torn > 1 && torn != len(fullLines[rec])/2 && torn != len(fullLines[rec]) {
				continue
			}
			// Open and resume for real.
			resumes++
			path := filepath.Join(dir, fmt.Sprintf("cut-%d-%d", m.writeRecs, cut))
			if err := os.WriteFile(path, m.content[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			resumed, held, err := reopenStore(path)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if fi, err := os.Stat(path); err != nil {
				t.Fatal(err)
			} else if fi.Size() != int64(cut-torn) {
				t.Fatalf("%s: Open left %d bytes on disk, want %d", what, fi.Size(), cut-torn)
			}
			executed := 0
			if err := checkpointRange(ctx, frozen, all, held, resumed, func(int, []byte) error { executed++; return nil }, oneWorker); err != nil {
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
				if !bytes.Equal(onDisk[i], fullLines[i]) {
					t.Fatalf("%s: surviving record %d not reused verbatim", what, i)
				}
			}
			got, skipped, err := campaign.MergeShardRecords(frozen, onDisk)
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

// fineGrid is the shape of the benchmark's fine grid — SAN, Emulation
// and Scenario points cycling over n = 3, 5, 7 — with the given SAN
// replicas and Emulation/Scenario executions per point.
func fineGrid(points, replicas, executions int) *campaign.Study {
	s := campaign.NewStudy("fine-grid")
	for i := 0; i < points; i++ {
		n := []int{3, 5, 7}[(i/3)%3]
		switch i % 3 {
		case 0:
			s.Add(campaign.SANPoint{Name: fmt.Sprintf("san-%04d", i), N: n, Replicas: replicas})
		case 1:
			s.Add(campaign.LatencyPoint{Name: fmt.Sprintf("emu-%04d", i), N: n, Executions: executions})
		case 2:
			p := campaign.ScenarioPoint{Name: "paper-baseline", Replicas: 1, Executions: executions}
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
	frozen, err := campaign.Frozen(fineGrid(360, 10, 20), campaign.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []shard.Range{{Start: 0, End: 180}, {Start: 180, End: 360}} {
		store, _ := openStore(t)
		appends, before, start := obs.CheckpointAppends.Value(), syncs(), time.Now()
		if err := checkpointRange(context.Background(), frozen, r, nil, store, nil, oneWorker); err != nil {
			t.Fatal(err)
		}
		elapsed := time.Since(start)
		gotAppends, gotSyncs := obs.CheckpointAppends.Value()-appends, syncs()-before
		t.Logf("range %s: %d appends, %d syncs in %v", r, gotAppends, gotSyncs, elapsed)
		if gotAppends != int64(r.Len()) {
			t.Errorf("range %s counted %d appends, want one per point", r, gotAppends)
		}
		if limit := int64(elapsed/checkpoint.SyncSlice) + 2; gotSyncs < 1 || gotSyncs > limit {
			t.Errorf("range %s: %d syncs in %v, want 1..%d (one per %v slice, not one per point)", r, gotSyncs, elapsed, limit, checkpoint.SyncSlice)
		}
		mustBeSynced(t, store)
	}
}

// TestShardResume pins the resume semantics: a store already holding
// some points causes only the missing ones to re-execute, and the final
// merged set is unchanged.
func TestShardResume(t *testing.T) {
	frozen, all := frozenTestStudy(t)
	ctx := context.Background()

	// Reference: the full range in one uninterrupted shard.
	full, fullPath := openStore(t)
	if err := checkpointRange(ctx, frozen, all, nil, full, nil, oneWorker); err != nil {
		t.Fatal(err)
	}
	fullLines := storeLines(t, fullPath)

	// Interrupted run: execute only [0,2), i.e. a crash after two points.
	path := filepath.Join(t.TempDir(), "interrupted")
	store, err := checkpoint.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkpointRange(ctx, frozen, shard.Range{Start: 0, End: 2}, nil, store, nil, oneWorker); err != nil {
		t.Fatal(err)
	}
	hashes, err := campaign.StudyPointHashes(frozen)
	if err != nil {
		t.Fatal(err)
	}
	if missing := missingPoints(hashes, all, storeLines(t, path)); len(missing) != 3 {
		t.Fatalf("missing = %v, want the 3 unexecuted points", missing)
	}

	// Resume: re-open (crash forgets the process, not the file) and run
	// the full range; executed points must be skipped, and the store must
	// end up holding the uninterrupted one's records, byte for byte (in
	// another order: each run writes in completion order).
	executed := 0
	store2, held, err := reopenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	count := func(i int, line []byte) error { executed++; return nil }
	if err := checkpointRange(ctx, frozen, all, held, store2, count, oneWorker); err != nil {
		t.Fatal(err)
	}
	if executed != 3 {
		t.Fatalf("resume executed %d points, want 3", executed)
	}
	sameRecords(t, frozen, storeLines(t, path), fullLines)

	// A second resume — a restarted shard opens its store afresh — is a
	// no-op.
	store3, held, err := reopenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	executed = 0
	if err := checkpointRange(ctx, frozen, all, held, store3, count, oneWorker); err != nil {
		t.Fatal(err)
	}
	if executed != 0 {
		t.Fatalf("fully-checkpointed shard re-executed %d points", executed)
	}

	// Torn tails: the store appends in place, so a crash can leave the
	// record in flight cut anywhere, and bit rot can break a record's CRC
	// with its newline intact. Either way the two records before the
	// damage are reused verbatim, the rest re-execute, and the merged
	// output is byte-identical to the uninterrupted run.
	want, _, err := campaign.MergeShardRecords(frozen, fullLines)
	if err != nil {
		t.Fatal(err)
	}
	intact := append(bytes.Join(fullLines[:2], []byte("\n")), '\n')
	third := fullLines[2]
	rotted := append([]byte(nil), third...)
	rotted[len(rotted)/2] ^= 0x01
	for _, damage := range []struct {
		name string
		tail []byte
	}{
		{"cut after 1 byte", third[:1]},
		{"cut mid-record", third[:len(third)/2]},
		{"cut before the newline", third},
		{"CRC mismatch", append(rotted, '\n')},
	} {
		name := damage.name
		path := filepath.Join(t.TempDir(), "torn")
		if err := os.WriteFile(path, append(intact[:len(intact):len(intact)], damage.tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		store, held, err := reopenStore(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		executed = 0
		if err := checkpointRange(ctx, frozen, all, held, store, count, oneWorker); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if executed != 3 {
			t.Fatalf("%s: resume executed %d points, want 3", name, executed)
		}
		onDisk, dropped, err := checkpoint.Load(path)
		if err != nil || dropped != 0 {
			t.Fatalf("%s: resumed store dirty: dropped=%d err=%v", name, dropped, err)
		}
		for i := 0; i < 2; i++ {
			if !bytes.Equal(onDisk[i], fullLines[i]) {
				t.Fatalf("%s: surviving record %d not reused verbatim", name, i)
			}
		}
		got, _, err := campaign.MergeShardRecords(frozen, onDisk)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range want {
			if !bytes.Equal(got[i].Result, want[i].Result) || !bytes.Equal(got[i].Digest, want[i].Digest) {
				t.Fatalf("%s: merged point %d differs from the uninterrupted run", name, i)
			}
		}
	}
}

// BenchmarkFineGridShardRange is the benchmark's 750-point fine grid the
// way a shard process runs it: checkpointRange into a fresh checkpoint
// store, every record written as its point completes and fsynced once
// per time slice. On top of campaign's BenchmarkFineGridCampaignSerial
// it pays record encoding, 750 write(2)s and syncs/op fsyncs — a dozen
// or so, where one fsync per point was 750 and cost as much as the
// engines.
func BenchmarkFineGridShardRange(b *testing.B) {
	frozen, err := campaign.Frozen(fineGrid(750, 20, 50), campaign.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	all := shard.Range{Start: 0, End: len(frozen.Points)}
	dir := b.TempDir()
	syncs := obs.CheckpointSyncs.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := filepath.Join(dir, fmt.Sprintf("store-%d.jsonl", i))
		store, err := checkpoint.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		if err := checkpointRange(context.Background(), frozen, all, nil, store, nil, oneWorker); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(obs.CheckpointSyncs.Value()-syncs)/float64(b.N), "syncs/op")
}
