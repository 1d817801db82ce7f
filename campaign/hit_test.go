package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"hash/crc32"
	"os"
	"slices"
	"sync"
	"testing"
)

// fixtureRecords is testdata/records_v1.jsonl: records of two studies,
// all three engines, one study name that json.Marshal escapes.
func fixtureRecords(t testing.TB) [][]byte {
	t.Helper()
	raw, err := os.ReadFile("testdata/records_v1.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
}

// reidentified is the reference a hit is held to: the record decoded,
// re-identified as point `index` of the study, and its result encoded
// anew with encoding/json.
func reidentified(t testing.TB, line []byte, study, point string, index int) []byte {
	t.Helper()
	rec, err := DecodeShardRecord(line)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rec.DecodeResult()
	if err != nil {
		t.Fatal(err)
	}
	res.Study, res.Point, res.Index = study, point, index
	result, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return result
}

// checkHit holds the stored line's result line, re-identified as point
// `index` of the study, to the reference.
func checkHit(t testing.TB, line []byte, study, point string, index int) {
	t.Helper()
	got, ok := ResultLine(line, study, point, index)
	if !ok {
		t.Fatalf("ResultLine refused a stored record: %s", line)
	}
	if want := reidentified(t, line, study, point, index); string(got) != string(want)+"\n" {
		t.Errorf("result line as (%q, %q, %d):\n got %s\nwant %s", study, point, index, got, want)
	}
}

// hardNames are strings json.Marshal escapes, or writes as they are
// although they are not plain ASCII.
var hardNames = []string{
	"", "plain", "a<b&c", "<script>", "x > y", `"quoted"`, `back\slash`, "tab\tnew\nline\r",
	"\x00\x01\x1f\x7f", "  ", "é ü 日本", "\xff\xfe invalid", "mixed <&> \" \\   é \xff",
}

// TestHitSpliceIsTheReencodedResult: a hit served as a stored record
// with the hitting study's identity spliced in is, byte for byte, what
// decoding the record, re-identifying the Result and encoding it again
// writes — for names and labels json.Marshal escapes, and for records
// made by another study, under another name, label and index.
func TestHitSpliceIsTheReencodedResult(t *testing.T) {
	for _, line := range fixtureRecords(t) {
		for i, name := range hardNames {
			checkHit(t, line, name, hardNames[len(hardNames)-1-i], i*1000)
		}
		checkHit(t, line, "records-v1", "san[0]", 0)
	}
}

// FuzzHitSplice is TestHitSpliceIsTheReencodedResult over any study
// name, point label and index.
func FuzzHitSplice(f *testing.F) {
	for i, name := range hardNames {
		f.Add(name, hardNames[len(hardNames)-1-i], i)
	}
	f.Add("records-v1", "san[0]", -1)
	lines := fixtureRecords(f)
	f.Fuzz(func(t *testing.T, study, point string, index int) {
		for _, line := range lines {
			checkHit(t, line, study, point, index)
		}
	})
}

// TestCutHitRefusesOtherLayouts: what ResultLine cannot cut at the
// writer's seams is no result line, and no record either: with its CRC
// made right, DecodeShardRecord refuses it — a valid record whose result
// keys come in another order included — so no store, cache or upload
// holds a record its reader would have to run again.
func TestCutHitRefusesOtherLayouts(t *testing.T) {
	line := fixtureRecords(t)[0]
	rec, err := DecodeShardRecord(line)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(rec.Result, &fields); err != nil {
		t.Fatal(err)
	}
	sorted, err := json.Marshal(fields) // the keys in sorted order: "aborted" first
	if err != nil {
		t.Fatal(err)
	}
	reordered := appendShardRecord(nil, rec.Study, rec.Index, rec.PointHash, rec.Seed, sorted, rec.Digest)
	if _, err := oracleDecodeShardRecord(reordered); err != nil {
		t.Fatalf("the reordered record is not a valid record: %v", err)
	}
	for _, bad := range [][]byte{
		nil,
		[]byte("{}"),
		line[:len(line)-1],
		bytes.Replace(line, []byte(`"result":{"study":`), []byte(`"result":{"point":`), 1),
		bytes.Replace(line, []byte(`,"engine":`), []byte(`,"machine":`), 1),
		bytes.Replace(line, []byte(`,"digest":"`), []byte(`,"digests":"`), 1),
		bytes.Replace(line, []byte(`"body":{"v":1`), []byte(`"body":{"v":2`), 1),
		reordered,
	} {
		if _, ok := ResultLine(bad, "s", "p", 0); ok {
			t.Errorf("ResultLine accepted %q", bad)
		}
		fixed := bytes.Clone(bad)
		if len(fixed) > bodyAt {
			putCRC(fixed[len(crcKey):], crc32.Checksum(fixed[bodyAt:len(fixed)-1], crcTable))
		}
		if _, err := DecodeShardRecord(fixed); err == nil {
			t.Errorf("DecodeShardRecord accepted %q", fixed)
		}
	}
}

// TestFrozenStudyRunsItsFreeze: a study Frozen made runs, enumerates and
// hashes from its one freeze, with the results of the study it froze; a
// copy given other points freezes those.
func TestFrozenStudyRunsItsFreeze(t *testing.T) {
	study := shardTestStudy()
	frozen, err := Frozen(study, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if frozen.grid() == nil {
		t.Fatal("Frozen kept no freeze")
	}
	want := resultLines(t, study, WithSeed(5), WithWorkers(1))
	// Run's options do not reach a frozen grid: the freeze has them.
	got := resultLines(t, frozen, WithSeed(99), WithReplicas(3), WithWorkers(2))
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("point %d of the frozen study:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
	again, err := Frozen(frozen, WithSeed(99))
	if err != nil || again == frozen || again.grid() != frozen.grid() {
		t.Fatalf("freezing a frozen study: %v; want a copy sharing its freeze", err)
	}
	hashes, err := StudyPointHashes(frozen)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := pointHashes(frozen.Points)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fresh {
		if hashes[i] != fresh[i] {
			t.Errorf("point %d: remembered hash %s, computed %s", i, hashes[i], fresh[i])
		}
	}
	edited := *frozen
	edited.Points = append([]Point{SANPoint{N: 7, Replicas: 10}}, frozen.Points[1:]...)
	if edited.grid() != nil {
		t.Fatal("a copy with other points kept the freeze")
	}
	if h, _ := StudyPointHashes(&edited); h[0] == hashes[0] {
		t.Error("a copy with other points hashed as the frozen study")
	}
}

// TestFrozenStudyEditedInPlaceRunsTheEdit: a point of a frozen study
// replaced in place runs as that point. The study freezes and hashes
// again, so the edited point's record is keyed by its own hash: no
// remembered statistics come out under the new point's label.
func TestFrozenStudyEditedInPlaceRunsTheEdit(t *testing.T) {
	frozen, err := Frozen(shardTestStudy(), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	before, err := StudyPointHashes(frozen)
	if err != nil {
		t.Fatal(err)
	}
	frozen.Points[2] = SANPoint{Name: "edited", N: 7, Replicas: 30, Seed: 11}
	if frozen.grid() != nil {
		t.Fatal("a point replaced in place kept the freeze")
	}
	want := resultLines(t, NewStudy(frozen.Name, slices.Clone(frozen.Points)...), WithSeed(5), WithWorkers(1))
	got := resultLines(t, frozen, WithWorkers(2))
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("point %d of the edited study:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
	hashes, err := StudyPointHashes(frozen)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := pointHashes(frozen.Points)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(hashes, fresh) || hashes[2] == before[2] {
		t.Errorf("hashes of the edited study %v, want %v, with point 2's other than %s", hashes, fresh, before[2])
	}
}

// TestSharedFreezeRunsConcurrently: one frozen grid — its prepared
// engine inputs — runs in several studies at once (go test -race), each
// with the results of a run of its own.
func TestSharedFreezeRunsConcurrently(t *testing.T) {
	study := shardTestStudy()
	study.Add(ScenarioPoint{Name: "paper-baseline", Replicas: 2, Executions: 20},
		ScenarioPoint{Name: "n5", SpecJSON: []byte(`{"name":"n5","n":5}`), Executions: 20})
	frozen, err := Frozen(study, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	want := resultLines(t, study, WithSeed(3), WithWorkers(1))
	var wg sync.WaitGroup
	outs := make([][]*Result, 3)
	for k := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if outs[k], err = RunCollect(context.Background(), frozen, WithWorkers(2)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for k, out := range outs {
		if got := encodeResults(t, out); !slices.EqualFunc(got, want, bytes.Equal) {
			t.Errorf("concurrent run %d of one freeze:\n got %s\nwant %s", k, got, want)
		}
	}
}

// TestKeptResultsEncodeAsChanged: what RunCollect returns is the struct,
// and a result changed after the run encodes as changed — nothing holds
// an encoding made during the run.
func TestKeptResultsEncodeAsChanged(t *testing.T) {
	results, err := RunCollect(context.Background(), shardTestStudy(), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		before, _ := json.Marshal(r)
		old, _ := json.Marshal(r.Point)
		r.Point = "changed"
		want := bytes.Replace(before, append([]byte(`"point":`), old...), []byte(`"point":"changed"`), 1)
		if got, _ := json.Marshal(r); !bytes.Equal(got, want) {
			t.Errorf("a changed result wrote\n%s\nwant %s", got, want)
		}
	}
}
