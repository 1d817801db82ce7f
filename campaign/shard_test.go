package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

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
	return encodeResults(t, results)
}

// encodeResults is the JSON line of each result, without its newline.
func encodeResults(t *testing.T, results []*Result) [][]byte {
	t.Helper()
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
		requireOracleBytes(t, hashes[i], i, res, line)
		rec := requireOracleRead(t, line)
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
	for _, line := range [][]byte{pristineRecord(t), recordOf(t, 150)} { // a digest of 192 and of 1684 characters
		testRejectsCorruption(t, line)
	}
}

// testRejectsCorruption holds the readers to the rows corruptRecords
// derives from line, a record they accept.
func testRejectsCorruption(t *testing.T, line []byte) {
	if _, err := DecodeShardRecord(line); err != nil {
		t.Fatalf("pristine record rejected: %v", err)
	}
	for _, c := range corruptRecords(t, line) {
		if _, err := DecodeShardRecord(c.line); err == nil {
			t.Errorf("%s: accepted %q", c.name, c.line)
		}
		if _, _, _, err := CheckShardRecord(c.line); err == nil {
			t.Errorf("%s: CheckShardRecord accepted %q", c.name, c.line)
		}
		// The rows the reference reader took are the layout's tightenings:
		// no writer ever emitted them.
		if _, err := oracleDecodeShardRecord(c.line); (err == nil) != c.oldAccepts {
			t.Errorf("%s: reference reader err = %v, want accepted = %v", c.name, err, c.oldAccepts)
		}
	}
}

// TestCheckShardRecordCopiesNothing: CheckShardRecord takes what
// DecodeShardRecord takes, reports the same index, hash and result, and
// returns the result as a slice of the line — on a record whose digest
// is shorter than the piece its base64 is checked in, and on one whose
// digest spans several pieces.
func TestCheckShardRecordCopiesNothing(t *testing.T) {
	for _, replicas := range []int{10, 150} {
		line := recordOf(t, replicas)
		rec, err := DecodeShardRecord(line)
		if err != nil {
			t.Fatal(err)
		}
		index, hash, result, err := CheckShardRecord(line)
		if err != nil || index != rec.Index || hash != rec.PointHash || !bytes.Equal(result, rec.Result) {
			t.Fatalf("replicas %d: CheckShardRecord = %d, %s, %s, %v; DecodeShardRecord read %d, %s, %s",
				replicas, index, hash, result, err, rec.Index, rec.PointHash, rec.Result)
		}
		if at := bytes.Index(line, result); at < 0 || &line[at] != &result[0] {
			t.Fatalf("replicas %d: the result is a copy, not the line's bytes", replicas)
		}
		if allocs := testing.AllocsPerRun(20, func() { CheckShardRecord(line) }); allocs > 1 {
			t.Errorf("replicas %d: CheckShardRecord allocates %.0f objects, want at most the point hash", replicas, allocs)
		}
	}
}

// pristineRecord is the record of a one-point SAN study named "s".
func pristineRecord(tb testing.TB) []byte { return recordOf(tb, 10) }

// recordOf is the record of a one-point SAN study named "s" of the
// given replicas.
func recordOf(tb testing.TB, replicas int) []byte {
	tb.Helper()
	frozen, err := Frozen(NewStudy("s", SANPoint{N: 3, Replicas: replicas}), WithSeed(1))
	if err != nil {
		tb.Fatal(err)
	}
	results, err := RunCollect(context.Background(), frozen, WithWorkers(1))
	if err != nil {
		tb.Fatal(err)
	}
	hashes, _ := StudyPointHashes(frozen)
	line, err := EncodeShardRecord(hashes[0], results[0])
	if err != nil {
		tb.Fatal(err)
	}
	return line
}

type corruptRecord struct {
	name string
	line []byte
	// oldAccepts: the encoding/json reader this layout replaced accepted
	// the line.
	oldAccepts bool
}

// corruptRecords derives from a pristine record line lines the reader
// must reject. Every line whose body was edited carries the CRC of its
// new body, so it is the layout that rejects it, not the checksum.
func corruptRecords(tb testing.TB, line []byte) []corruptRecord {
	tb.Helper()
	body := string(line[bodyAt : len(line)-1])
	rec, err := oracleDecodeShardRecord(line)
	if err != nil {
		tb.Fatal(err)
	}
	quoted := func(v any) string { q, _ := json.Marshal(v); return string(q) } // strings and []byte always marshal
	keys := []string{"v", "study", "index", "point_hash", "seed", "result", "digest"}
	vals := map[string]string{
		"v": "1", "study": quoted(rec.Study), "index": strconv.Itoa(rec.Index), "point_hash": quoted(rec.PointHash),
		"seed": strconv.FormatUint(rec.Seed, 10), "result": string(rec.Result), "digest": quoted(rec.Digest),
	}
	build := func(order []string, edit map[string]string, extra string) []byte {
		var b strings.Builder
		for i, k := range order {
			v := vals[k]
			if e, ok := edit[k]; ok {
				v = e
			}
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%q:%s", k, v)
		}
		return framed("{" + b.String() + extra + "}")
	}
	edited := func(k, v string) []byte { return build(keys, map[string]string{k: v}, "") }
	if got := build(keys, nil, ""); !bytes.Equal(got, line) {
		tb.Fatalf("rebuilt record differs from the pristine one:\n%s\n%s", got, line)
	}
	reordered := append([]string{"v", "index", "study"}, keys[3:]...)
	digest := vals["digest"]
	flipped := bytes.Clone(line)
	flipped[len(flipped)/2] ^= 0x01
	rows := []corruptRecord{
		{"bit flip", flipped, false},
		{"wrong CRC", []byte(`{"crc":"00000000","body":{}}`), false},
		{"not JSON", []byte(`not json`), false},
		{"index -1", edited("index", "-1"), true},
		{"index 01", edited("index", "01"), false},
		{"index -0", edited("index", "-0"), true},
		{"index above MaxInt", edited("index", strconv.FormatUint(uint64(math.MaxInt)+1, 10)), false},
		{"seed 2^64", edited("seed", "18446744073709551616"), false},
		{"version 2", edited("v", "2"), false},
		{"reordered keys", build(reordered, nil, ""), true},
		{"unknown body key", build(keys, nil, `,"extra":1`), true},
		{"duplicate body", fmt.Appendf(nil, `{"crc":"%08x","body":{},"body":%s}`, crc32.Checksum([]byte(body), crcTable), body), true},
		{"trailing \\r", append(bytes.Clone(line), '\r'), true},
		{"trailing space", append(bytes.Clone(line), ' '), true},
		{"leading space", append([]byte(" "), line...), true},
		{"space after a colon", framed(strings.Replace(body, `"seed":`, `"seed": `, 1)), true},
		{"truncated digest", edited("digest", digest[:len(digest)-3]+`"`), false},
		{"digest with nonzero padding bits", edited("digest", nonzeroPadding(tb, digest)), true},
		{"result not JSON", edited("result", `{"study":}`), false},
		{"result not an object", edited("result", `null`), true},
		{"result not compact", edited("result", "{ }"), true},
		{"study escaped unlike the writer", edited("study", `"\u0073"`), true},
	}
	if len(digest) > 1100 {
		// CheckShardRecord reads a digest in pieces of 1024 characters:
		// padding that ends the first piece, and line breaks the decoder
		// skips, shifting the pieces by a whole quantum.
		rows = append(rows,
			corruptRecord{"digest padded at the end of a piece", edited("digest", digest[:1021]+"AA=="+digest[1025:]), false},
			corruptRecord{"digest with line breaks", edited("digest", digest[:101]+"\n\n\n\n"+digest[101:]), false})
	}
	return rows
}

// nonzeroPadding sets the lowest discarded bit of a padded base64 string
// literal: the same bytes for a lenient decoder, never the writer's.
func nonzeroPadding(tb testing.TB, quoted string) string {
	tb.Helper()
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	last := strings.LastIndexFunc(quoted, func(r rune) bool { return r != '"' && r != '=' })
	if !strings.HasSuffix(quoted, `="`) || quoted[last] == '/' {
		tb.Fatalf("digest %s has no padding bits to set", quoted)
	}
	next := alphabet[strings.IndexByte(alphabet, quoted[last])+1]
	return quoted[:last] + string(next) + quoted[last+1:]
}

// framed wraps a body in the crc envelope with the body's own CRC.
func framed(body string) []byte {
	return fmt.Appendf(nil, `{"crc":"%08x","body":%s}`, crc32.Checksum([]byte(body), crcTable), body)
}

// TestShardRecordFixture: records written before the fixed-layout writer
// and reader — one per engine (the emulation heartbeat FD too), and a
// study name with characters JSON escapes (<, &, ", \, U+2028), a
// non-ASCII rune and invalid UTF-8 over a point seeded near 2^64 — are
// read with the fields the reference reader finds and rewritten byte for
// byte, so checkpoint directories and ctsand cache files from then
// resume and serve.
func TestShardRecordFixture(t *testing.T) {
	raw, err := os.ReadFile("testdata/records_v1.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	// The fixture's studies, as they were named: a record keeps the name's
	// invalid UTF-8 only as the \ufffd escapes json.Marshal wrote for it.
	studies := []string{"records-v1", "odd <name> & \"quoted\" \\ é\u2028 \xff\xfe end"}
	named := map[string]string{}
	for _, name := range studies {
		var decoded string
		q, _ := json.Marshal(name)
		if err := json.Unmarshal(q, &decoded); err != nil {
			t.Fatal(err)
		}
		named[decoded] = name
	}
	lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	engines := map[Engine]bool{}
	maxSeed := uint64(0)
	for i, line := range lines {
		rec := requireOracleRead(t, line)
		res, err := rec.DecodeResult()
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		engines[res.Engine] = true
		maxSeed = max(maxSeed, rec.Seed)
		name, ok := named[res.Study]
		if !ok {
			t.Fatalf("line %d: unknown study %q", i, res.Study)
		}
		res.Study = name
		again, err := EncodeShardRecord(rec.PointHash, res)
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if !bytes.Equal(again, line) {
			t.Fatalf("line %d rewritten differently:\n got %s\nwant %s", i, again, line)
		}
		requireOracleBytes(t, rec.PointHash, rec.Index, res, line)
	}
	if len(lines) != 5 || len(engines) != 3 || maxSeed < math.MaxUint64-100 {
		t.Fatalf("fixture: %d lines, engines %v, largest seed %d; want 5 lines, all three engines, a seed near 2^64",
			len(lines), engines, maxSeed)
	}
}

// runRecords runs indices of frozen through RunRecords and returns the
// record lines it emitted, in emission order. Each line must read as the
// reference reader reads it and be the bytes the reference writer
// writes (requireOracleRead), and carry the index it was emitted under.
func runRecords(t *testing.T, frozen *Study, indices []int, opts ...Option) [][]byte {
	t.Helper()
	hashes, err := StudyPointHashes(frozen)
	if err != nil {
		t.Fatal(err)
	}
	var lines [][]byte
	err = RunRecords(context.Background(), frozen, hashes, indices, func(index int, line []byte) error {
		if rec := requireOracleRead(t, line); rec.Index != index {
			t.Errorf("record of point %d emitted as point %d", rec.Index, index)
		}
		lines = append(lines, line)
		return nil
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return lines
}

// recordIndex is the grid index a record line carries.
func recordIndex(t *testing.T, line []byte) int {
	t.Helper()
	rec, err := DecodeShardRecord(line)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Index
}

// TestShardedRunMatchesSingleProcess is the in-process differential core
// of the crash-safe sharding layer: executing a frozen study as several
// ranges of record lines and merging them reproduces, byte for byte, the
// JSONL a 1-process run emits.
func TestShardedRunMatchesSingleProcess(t *testing.T) {
	study := shardTestStudy()
	frozen, err := Frozen(study, WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	ref := resultLines(t, study, WithSeed(21), WithWorkers(1))

	var lines [][]byte
	for _, indices := range [][]int{{0, 1}, {2}, {3, 4}} {
		lines = append(lines, runRecords(t, frozen, indices, WithWorkers(2))...)
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

// TestRunRecordsRejectsBadIndices: the indices RunRecords is given come
// from a command line or over HTTP, so it refuses, before running
// anything, a list that is empty, leaves the grid, is out of order or
// repeats a point, and hashes that are not the grid's.
func TestRunRecordsRejectsBadIndices(t *testing.T) {
	frozen, err := Frozen(shardTestStudy(), WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	hashes, err := StudyPointHashes(frozen)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		indices []int
		hashes  []string
		want    string
	}{
		{"negative index", []int{-1, 0}, hashes, "index -1 outside study of 5 points"},
		{"index past the grid", []int{3, 4, 5}, hashes, "index 5 outside study of 5 points"},
		{"unsorted", []int{0, 2, 1}, hashes, "index 1 after 2: indices must increase"},
		{"duplicate", []int{1, 1}, hashes, "index 1 after 1: indices must increase"},
		{"empty", nil, hashes, "no index to run in study of 5 points"},
		{"hashes of another grid", []int{0}, hashes[:4], "4 point hashes for a study of 5 points"},
	} {
		emitted := 0
		err := RunRecords(context.Background(), frozen, tc.hashes, tc.indices,
			func(int, []byte) error { emitted++; return nil }, WithWorkers(1))
		if err == nil || !strings.Contains(err.Error(), tc.want) || emitted != 0 {
			t.Errorf("%s: RunRecords(%v) = %v after %d records, want %q before any", tc.name, tc.indices, err, emitted, tc.want)
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

// FuzzDecodeShardRecord: the record decoder faces checkpoint files that
// survived crashes and bit rot, and uploads from any client; it must
// never panic, and whatever it accepts the reference reader accepts with
// the same fields, and the writer writes back byte for byte. Each input
// is tried as given and with the CRC of its body, so the fuzzer reaches
// the body's layout instead of stopping at the checksum.
func FuzzDecodeShardRecord(f *testing.F) {
	line := pristineRecord(f)
	f.Add(line)
	f.Add(line[:len(line)/2])
	for _, c := range corruptRecords(f, line) {
		f.Add(c.line)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fixed := bytes.Clone(data)
		if len(fixed) > bodyAt {
			putCRC(fixed[len(crcKey):], crc32.Checksum(fixed[bodyAt:len(fixed)-1], crcTable))
		}
		for _, line := range [][]byte{data, fixed} {
			index, hash, result, cerr := CheckShardRecord(line)
			rec, err := DecodeShardRecord(line)
			if (err == nil) != (cerr == nil) || err == nil && (index != rec.Index || hash != rec.PointHash || !bytes.Equal(result, rec.Result)) {
				t.Fatalf("CheckShardRecord = %d, %q, %v and DecodeShardRecord = %+v, %v disagree on %q", index, hash, cerr, rec, err, line)
			}
			if err == nil {
				rec := requireOracleRead(t, line)
				rec.DecodeResult() //nolint:errcheck // must not panic
			}
		}
	})
}

// The reference record writer and reader: the encoding/json ones the
// fixed-layout appendShardRecord and DecodeShardRecord replaced, kept to
// hold them to the same bytes and the same fields.

// shardEnvelope frames a record line: CRC over the exact body bytes.
type shardEnvelope struct {
	CRC  string          `json:"crc"`
	Body json.RawMessage `json:"body"`
}

func oracleEncodeShardRecord(pointHash string, index int, res *Result) ([]byte, error) {
	at := *res
	at.Index = index
	resultJSON, err := json.Marshal(&at)
	if err != nil {
		return nil, err
	}
	digestBin, err := res.digest.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return oracleEncodeRecord(ShardRecord{
		V:         ShardRecordVersion,
		Study:     res.Study,
		Index:     index,
		PointHash: pointHash,
		Seed:      res.Seed,
		Result:    resultJSON,
		Digest:    digestBin,
	})
}

func oracleEncodeRecord(rec ShardRecord) ([]byte, error) {
	body, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	return []byte(fmt.Sprintf(`{"crc":"%08x","body":%s}`, crc32.Checksum(body, crcTable), body)), nil
}

func oracleDecodeShardRecord(line []byte) (*ShardRecord, error) {
	var env shardEnvelope
	if err := json.Unmarshal(line, &env); err != nil {
		return nil, err
	}
	if len(env.Body) == 0 {
		return nil, fmt.Errorf("no body")
	}
	if got := fmt.Sprintf("%08x", crc32.Checksum(env.Body, crcTable)); got != env.CRC {
		return nil, fmt.Errorf("CRC mismatch (stored %s, computed %s)", env.CRC, got)
	}
	var rec ShardRecord
	if err := json.Unmarshal(env.Body, &rec); err != nil {
		return nil, err
	}
	if rec.V != ShardRecordVersion {
		return nil, fmt.Errorf("version %d", rec.V)
	}
	if len(rec.Result) == 0 {
		return nil, fmt.Errorf("no result")
	}
	return &rec, nil
}

// requireOracleBytes fails unless line is what the reference writer
// makes of res at grid index `index`.
func requireOracleBytes(tb testing.TB, pointHash string, index int, res *Result, line []byte) {
	tb.Helper()
	want, err := oracleEncodeShardRecord(pointHash, index, res)
	if err != nil {
		tb.Fatal(err)
	}
	if !bytes.Equal(line, want) {
		tb.Fatalf("record differs from the reference writer's:\n got %s\nwant %s", line, want)
	}
}

// requireOracleRead reads line, which DecodeShardRecord must accept,
// and fails unless the reference reader accepts it with the same fields,
// the record owns its bytes, and both writers write the record back as
// line.
func requireOracleRead(tb testing.TB, line []byte) *ShardRecord {
	tb.Helper()
	scratch := bytes.Clone(line)
	rec, err := DecodeShardRecord(scratch)
	if err != nil {
		tb.Fatalf("record rejected: %v\n%s", err, line)
	}
	clear(scratch) // a record sharing the line's bytes would change here
	want, err := oracleDecodeShardRecord(line)
	if err != nil {
		tb.Fatalf("reader accepted a line the reference reader rejects (%v):\n%q", err, line)
	}
	if rec.V != want.V || rec.Study != want.Study || rec.Index != want.Index || rec.PointHash != want.PointHash ||
		rec.Seed != want.Seed || !bytes.Equal(rec.Result, want.Result) || !bytes.Equal(rec.Digest, want.Digest) {
		tb.Fatalf("reader and reference reader disagree, or the record shares the line's bytes:\n got %+v\nwant %+v", rec, want)
	}
	// A \ufffd escape in a string is how json.Marshal writes a byte of
	// invalid UTF-8; it reads as U+FFFD, which both writers write raw.
	// Such a line is written back as a line that reads the same.
	lossy := strings.ContainsRune(rec.Study, utf8.RuneError) || strings.ContainsRune(rec.PointHash, utf8.RuneError)
	again := appendShardRecord(nil, rec.Study, rec.Index, rec.PointHash, rec.Seed, rec.Result, rec.Digest)
	if old, err := oracleEncodeRecord(*rec); err != nil || !bytes.Equal(old, again) {
		tb.Fatalf("writer and reference writer disagree (%v):\n got %q\nwant %q", err, again, old)
	}
	switch {
	case !lossy && !bytes.Equal(again, line):
		tb.Fatalf("writer does not reproduce an accepted line:\n got %q\nwant %q", again, line)
	case lossy:
		back, err := DecodeShardRecord(again)
		if err != nil || back.Study != rec.Study || back.PointHash != rec.PointHash {
			tb.Fatalf("written-back line does not read the same (%v): %q", err, again)
		}
	}
	return rec
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
// one-execution Emulation point run through RunRecords into record
// lines, and come back through MergeShardRecords as the results of the
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
	records, skipped, err := MergeShardRecords(frozen, runRecords(t, frozen, []int{0, 1}, WithWorkers(1)))
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
