package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"ctsan/internal/checkpoint"
	"ctsan/internal/metrics"
)

// shardTestStudy is a small cross-engine grid: fast enough for unit
// tests, wide enough to exercise per-point seeds, labels, and replica
// defaults across all three engines.
func shardTestStudy() *Study {
	return NewStudy("shard-test",
		SANPoint{N: 3, Replicas: 60},
		LatencyPoint{N: 3, Executions: 25},
		SANPoint{Name: "pinned-seed", N: 4, Replicas: 40, Seed: 99},
		LatencyPoint{N: 3, Executions: 25, TimeoutT: 30},
		SANPoint{N: 5, Replicas: 40, TSend: 0.05},
	)
}

// resultLines is the reference output: the exact JSONL bytes (one line
// per point, no trailing newline) a 1-process run emits.
func resultLines(t *testing.T, study *Study, opts ...Option) [][]byte {
	t.Helper()
	results, err := RunCollect(context.Background(), study, opts...)
	if err != nil {
		t.Fatal(err)
	}
	lines := make([][]byte, len(results))
	for i, r := range results {
		buf, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = buf
	}
	return lines
}

func TestStudySpecRoundTrip(t *testing.T) {
	study := shardTestStudy()
	spec, err := EncodeStudy(study)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeStudy(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec2, err := EncodeStudy(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(spec, spec2) {
		t.Fatal("encode→decode→encode is not byte-stable")
	}
	// The decoded study must *run* identically, not just look identical.
	ref := resultLines(t, study, WithSeed(7), WithWorkers(1))
	got := resultLines(t, decoded, WithSeed(7), WithWorkers(1))
	for i := range ref {
		if !bytes.Equal(ref[i], got[i]) {
			t.Fatalf("point %d diverged after spec round trip:\n%s\n%s", i, ref[i], got[i])
		}
	}
}

func TestDecodeStudyRejectsBadSpecs(t *testing.T) {
	for name, spec := range map[string]string{
		"bad version":    `{"v":2,"name":"x","points":[]}`,
		"unknown engine": `{"v":1,"name":"x","points":[{"engine":"quantum","spec":{}}]}`,
		"unknown field":  `{"v":1,"name":"x","points":[{"engine":"san","spec":{"N":3,"Replicaz":10}}]}`,
		"not json":       `-`,
	} {
		if _, err := DecodeStudy([]byte(spec)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestFrozenRunsIdentically(t *testing.T) {
	study := shardTestStudy()
	opts := []Option{WithSeed(11), WithReplicas(30), WithWorkers(1)}
	frozen, err := Frozen(study, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ref := resultLines(t, study, opts...)
	// The frozen study runs identically WITHOUT the options: everything
	// they resolved is pinned into the points.
	got := resultLines(t, frozen, WithWorkers(1))
	for i := range ref {
		if !bytes.Equal(ref[i], got[i]) {
			t.Fatalf("point %d diverged after freezing:\n%s\n%s", i, ref[i], got[i])
		}
	}
	// Freezing is idempotent: a second freeze changes nothing.
	again, err := Frozen(frozen)
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := EncodeStudy(frozen)
	s2, _ := EncodeStudy(again)
	if !bytes.Equal(s1, s2) {
		t.Fatal("freezing is not idempotent")
	}
}

func TestPointHash(t *testing.T) {
	p := SANPoint{N: 3, Replicas: 60, Seed: 1}
	h1, err := PointHash(p)
	if err != nil {
		t.Fatal(err)
	}
	h2, _ := PointHash(p)
	if h1 != h2 {
		t.Fatal("hash not deterministic")
	}
	for name, q := range map[string]Point{
		"different seed":    SANPoint{N: 3, Replicas: 60, Seed: 2},
		"different n":       SANPoint{N: 4, Replicas: 60, Seed: 1},
		"different engine":  LatencyPoint{N: 3, Seed: 1},
		"differentnreplica": SANPoint{N: 3, Replicas: 61, Seed: 1},
	} {
		h, err := PointHash(q)
		if err != nil {
			t.Fatal(err)
		}
		if h == h1 {
			t.Errorf("%s: hash collision with base point", name)
		}
	}
}

func TestShardRecordRoundTrip(t *testing.T) {
	frozen, err := Frozen(shardTestStudy(), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunCollect(context.Background(), frozen, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	hashes, err := StudyPointHashes(frozen)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		line, err := EncodeShardRecord(hashes[i], res)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := DecodeShardRecord(line)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Index != i || rec.PointHash != hashes[i] || rec.Seed != res.Seed {
			t.Fatalf("record %d header mismatch: %+v", i, rec)
		}
		want, _ := json.Marshal(res)
		if !bytes.Equal(rec.Result, want) {
			t.Fatalf("record %d result bytes differ from the in-process JSON", i)
		}
		back, err := rec.DecodeResult()
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
			a, b := res.Quantile(q), back.Quantile(q)
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("record %d: q=%g digest quantile %v != %v after round trip", i, q, b, a)
			}
		}
		if got, _ := json.Marshal(back); !bytes.Equal(got, want) {
			t.Fatalf("record %d: re-marshaled decoded result differs", i)
		}
	}
}

func TestShardRecordRejectsCorruption(t *testing.T) {
	frozen, err := Frozen(NewStudy("s", SANPoint{N: 3, Replicas: 20}), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunCollect(context.Background(), frozen, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	hashes, _ := StudyPointHashes(frozen)
	line, err := EncodeShardRecord(hashes[0], results[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeShardRecord(line); err != nil {
		t.Fatalf("pristine record rejected: %v", err)
	}
	// Flip one bit inside the body: the CRC must catch it.
	bad := append([]byte(nil), line...)
	bad[len(bad)/2] ^= 0x01
	if _, err := DecodeShardRecord(bad); err == nil {
		t.Fatal("bit-flipped record accepted")
	}
	if _, err := DecodeShardRecord([]byte(`{"crc":"00000000","body":{}}`)); err == nil {
		t.Fatal("wrong CRC accepted")
	}
	if _, err := DecodeShardRecord([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestShardedRunMatchesSingleProcess is the in-process differential core
// of the crash-safe sharding layer: executing a frozen study as several
// checkpointed shard ranges and merging the stores reproduces, byte for
// byte, the JSONL a 1-process run emits.
func TestShardedRunMatchesSingleProcess(t *testing.T) {
	study := shardTestStudy()
	frozen, err := Frozen(study, WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	ref := resultLines(t, study, WithSeed(21), WithWorkers(1))

	dir := t.TempDir()
	ctx := context.Background()
	var lines [][]byte
	for _, r := range [][2]int{{0, 2}, {2, 3}, {3, 5}} {
		path := filepath.Join(dir, nameRange(r[0], r[1]))
		store, err := checkpoint.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := RunShardRange(ctx, frozen, r[0], r[1], store, nil, WithWorkers(2)); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, storeLines(t, path)...)
	}
	records, skipped, err := MergeShardRecords(frozen, lines)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("%d records skipped in a clean run", skipped)
	}
	for i, rec := range records {
		if !bytes.Equal(rec.Result, ref[i]) {
			t.Fatalf("point %d: sharded result differs from 1-process run:\n%s\n%s", i, rec.Result, ref[i])
		}
	}
}

// TestShardResume pins the resume semantics: a store already holding
// some points causes only the missing ones to re-execute, and the final
// merged set is unchanged.
func TestShardResume(t *testing.T) {
	frozen, err := Frozen(shardTestStudy(), WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Reference: the full range in one uninterrupted shard.
	full, fullPath := openStore(t)
	if err := RunShardRange(ctx, frozen, 0, 5, full, nil, WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	fullLines := storeLines(t, fullPath)

	// Interrupted run: execute only [0,2), i.e. a crash after two points.
	path := filepath.Join(t.TempDir(), "interrupted")
	store, err := checkpoint.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := RunShardRange(ctx, frozen, 0, 2, store, nil, WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	hashes, err := StudyPointHashes(frozen)
	if err != nil {
		t.Fatal(err)
	}
	if missing := missingPoints(hashes, 0, 5, storeLines(t, path)); len(missing) != 3 {
		t.Fatalf("missing = %v, want the 3 unexecuted points", missing)
	}

	// Resume: re-open (crash forgets the process, not the file) and run
	// the full range; executed points must be skipped, and the store must
	// end up holding the uninterrupted one's records, byte for byte (in
	// another order: each run writes in completion order).
	executed := 0
	store2, err := checkpoint.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	count := func(i int, line []byte) error { executed++; return nil }
	if err := RunShardRange(ctx, frozen, 0, 5, store2, count, WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	if executed != 3 {
		t.Fatalf("resume executed %d points, want 3", executed)
	}
	sameRecords(t, frozen, storeLines(t, path), fullLines)

	// A second resume — a restarted shard opens its store afresh — is a
	// no-op.
	store3, err := checkpoint.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	executed = 0
	if err := RunShardRange(ctx, frozen, 0, 5, store3, count, WithWorkers(1)); err != nil {
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
	want, _, err := MergeShardRecords(frozen, fullLines)
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
		store, err := checkpoint.Open(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		executed = 0
		if err := RunShardRange(ctx, frozen, 0, 5, store, count, WithWorkers(1)); err != nil {
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
		got, _, err := MergeShardRecords(frozen, onDisk)
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

func TestMergeShardRecordsReportsMissingAndStale(t *testing.T) {
	frozen, err := Frozen(NewStudy("s", SANPoint{N: 3, Replicas: 20}, SANPoint{N: 4, Replicas: 20}), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunCollect(context.Background(), frozen, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	hashes, _ := StudyPointHashes(frozen)
	line0, err := EncodeShardRecord(hashes[0], results[0])
	if err != nil {
		t.Fatal(err)
	}
	// Only point 0 checkpointed: merge must fail naming point 1.
	if _, _, err := MergeShardRecords(frozen, [][]byte{line0}); err == nil {
		t.Fatal("incomplete merge succeeded")
	}
	// A record with a stale hash (spec changed since it was written) must
	// not satisfy its index.
	stale, err := EncodeShardRecord("sha256:deadbeef", results[1])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := MergeShardRecords(frozen, [][]byte{line0, stale}); err == nil {
		t.Fatal("merge accepted a stale record")
	}
	line1, err := EncodeShardRecord(hashes[1], results[1])
	if err != nil {
		t.Fatal(err)
	}
	records, skipped, err := MergeShardRecords(frozen, [][]byte{stale, line1, line0, line1})
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 2 { // the stale record and the duplicate
		t.Fatalf("skipped = %d, want 2", skipped)
	}
	if records[0].Index != 0 || records[1].Index != 1 {
		t.Fatal("merged records out of index order")
	}
}

func nameRange(a, b int) string {
	return "shard-" + string(rune('0'+a)) + "-" + string(rune('0'+b)) + ".jsonl"
}

// FuzzDecodeShardRecord: the record decoder faces checkpoint files that
// survived crashes and bit rot; it must never panic and never accept a
// line whose CRC does not hold.
func FuzzDecodeShardRecord(f *testing.F) {
	frozen, err := Frozen(NewStudy("s", SANPoint{N: 3, Replicas: 10}), WithSeed(1))
	if err != nil {
		f.Fatal(err)
	}
	results, err := RunCollect(context.Background(), frozen, WithWorkers(1))
	if err != nil {
		f.Fatal(err)
	}
	hashes, _ := StudyPointHashes(frozen)
	line, err := EncodeShardRecord(hashes[0], results[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(line)
	f.Add(line[:len(line)/2])
	flipped := append([]byte(nil), line...)
	flipped[len(flipped)/3] ^= 0x20
	f.Add(flipped)
	f.Add([]byte(`{"crc":"00000000","body":{}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeShardRecord(data)
		if err != nil {
			return
		}
		// Anything accepted must at least round-trip its digest; the
		// result may still be rejected by DecodeResult's cross-checks.
		if _, err := rec.DecodeResult(); err == nil {
			if rec.Index < 0 {
				t.Fatal("accepted record with negative index")
			}
		}
	})
}

// TestSingleSampleSummaryHasNoInterval: one sample has a mean and no
// confidence interval. The digest's +Inf must not reach the Summary —
// JSON cannot carry it, so the point's result could not be encoded and
// the whole study failed at its first record.
func TestSingleSampleSummaryHasNoInterval(t *testing.T) {
	var d metrics.Digest
	d.Add(1.25)
	if ci := d.CI(0.90); !math.IsInf(ci, 1) {
		t.Fatalf("digest CI of one sample = %v, want +Inf (its other callers rely on it)", ci)
	}
	got := summarize(&d)
	want := Summary{N: 1, Mean: 1.25, P50: 1.25, P90: 1.25, P99: 1.25, Min: 1.25, Max: 1.25}
	if got != want {
		t.Fatalf("summarize(one sample) = %+v, want %+v", got, want)
	}
	if _, err := json.Marshal(got); err != nil {
		t.Fatalf("one-sample summary does not encode: %v", err)
	}
	d.Add(1.75)
	if two := summarize(&d); !(two.CI90 > 0) || math.IsInf(two.CI90, 0) {
		t.Fatalf("two samples: ci90 = %v, want a finite positive half-width", two.CI90)
	}
}

// TestSingleSamplePointsSurviveTheStore: a one-replica SAN point and a
// one-execution Emulation point run through RunShardRange into a store,
// and come back through MergeShardRecords as the results of the
// in-process run, n = 1 and ci90 = 0.
func TestSingleSamplePointsSurviveTheStore(t *testing.T) {
	study := NewStudy("tiny",
		SANPoint{Name: "one-replica", N: 3, Replicas: 1},
		LatencyPoint{Name: "one-execution", N: 3, Executions: 1},
	)
	frozen, err := Frozen(study, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	want := resultLines(t, frozen, WithSeed(3), WithWorkers(1))
	store, path := openStore(t)
	if err := RunShardRange(context.Background(), frozen, 0, len(frozen.Points), store, nil, WithWorkers(1)); err != nil {
		t.Fatalf("RunShardRange over single-sample points: %v", err)
	}
	records, skipped, err := MergeShardRecords(frozen, storeLines(t, path))
	if err != nil || skipped != 0 || len(records) != len(want) {
		t.Fatalf("merge: %d records, %d skipped, err %v; want %d records", len(records), skipped, err, len(want))
	}
	for i, rec := range records {
		if !bytes.Equal(rec.Result, want[i]) {
			t.Errorf("point %d: stored result differs from the in-process run\n got %s\nwant %s", i, rec.Result, want[i])
		}
		res, err := rec.DecodeResult()
		if err != nil {
			t.Fatal(err)
		}
		if res.Latency.N != 1 || res.Latency.CI90 != 0 || res.Latency.Mean <= 0 {
			t.Errorf("point %d: latency summary %+v, want n=1, ci90=0 and a positive mean", i, res.Latency)
		}
	}
}
