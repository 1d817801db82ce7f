package campaign

import (
	"bytes"
	"context"
	"encoding/json"
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

// checkHit holds the hit of the stored line, re-identified as point
// `index` of the study, to the reference.
func checkHit(t testing.TB, line []byte, study, point string, index int) {
	t.Helper()
	rest, ok := cutHit(line)
	if !ok {
		t.Fatalf("cutHit refused a stored record: %s", line)
	}
	want := reidentified(t, line, study, point, index)
	if got := hitLine(rest, study, point, index); string(got) != string(want)+"\n" {
		t.Errorf("hit line as (%q, %q, %d):\n got %s\nwant %s", study, point, index, got, want)
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

// TestRunRecordsWritesAHitAsItsRecord: the records RunRecords writes
// for hits on a cache another study filled are those it writes running
// the points.
func TestRunRecordsWritesAHitAsItsRecord(t *testing.T) {
	study := shardTestStudy()
	cache := newMapCache()
	other := NewStudy("another <name>", slices.Clone(study.Points)...)
	if _, err := RunCollect(context.Background(), other, WithSeed(4), WithPointCache(cache)); err != nil {
		t.Fatal(err)
	}
	frozen, err := Frozen(study, WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	hashes, err := StudyPointHashes(frozen)
	if err != nil {
		t.Fatal(err)
	}
	records := func(opts ...Option) map[int][]byte {
		out := map[int][]byte{}
		err := RunRecords(context.Background(), frozen, hashes, []int{1, 2, 4}, func(index int, line []byte) error {
			out[index] = line
			return nil
		}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	cold := records()
	cache.hits = 0
	warm := records(WithPointCache(cache))
	if cache.hits != len(cold) {
		t.Errorf("%d cache hits, want %d", cache.hits, len(cold))
	}
	for index, want := range cold {
		if !bytes.Equal(warm[index], want) {
			t.Errorf("record of point %d from the cache:\n got %s\nwant %s", index, warm[index], want)
		}
	}
}

// TestCutHitRefusesOtherLayouts: what cutHit cannot cut at the writer's
// seams is no hit (Run runs the point).
func TestCutHitRefusesOtherLayouts(t *testing.T) {
	line := fixtureRecords(t)[0]
	for _, bad := range [][]byte{
		nil,
		[]byte("{}"),
		line[:len(line)-1],
		bytes.Replace(line, []byte(`"result":{"study":`), []byte(`"result":{"point":`), 1),
		bytes.Replace(line, []byte(`,"engine":`), []byte(`,"machine":`), 1),
		bytes.Replace(line, []byte(`,"digest":"`), []byte(`,"digests":"`), 1),
		bytes.Replace(line, []byte(`"body":{"v":1`), []byte(`"body":{"v":2`), 1),
	} {
		if _, ok := cutHit(bad); ok {
			t.Errorf("cutHit accepted %q", bad)
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
// again, so a cache the unedited study filled serves the other points
// and misses the edited one: no remembered statistics come out under
// the new point's label.
func TestFrozenStudyEditedInPlaceRunsTheEdit(t *testing.T) {
	frozen, err := Frozen(shardTestStudy(), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	cache := newMapCache()
	if _, err := RunCollect(context.Background(), frozen, WithPointCache(cache)); err != nil {
		t.Fatal(err)
	}
	frozen.Points[2] = SANPoint{Name: "edited", N: 7, Replicas: 30, Seed: 11}
	if frozen.grid() != nil {
		t.Fatal("a point replaced in place kept the freeze")
	}
	want := resultLines(t, NewStudy(frozen.Name, slices.Clone(frozen.Points)...), WithSeed(5), WithWorkers(1))
	cache.hits = 0
	got := resultLines(t, frozen, WithPointCache(cache), WithWorkers(2))
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("point %d of the edited study:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
	if want := len(frozen.Points) - 1; cache.hits != want {
		t.Errorf("%d cache hits, want %d: every point but the edited one", cache.hits, want)
	}
	hashes, err := StudyPointHashes(frozen)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := pointHashes(frozen.Points)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(hashes, fresh) {
		t.Errorf("hashes of the edited study %v, want %v", hashes, fresh)
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
	outs := make([][]byte, 3)
	for k := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			if err := Run(context.Background(), frozen, WithWorkers(2), WithSink(NewJSONLWriter(&buf))); err != nil {
				t.Error(err)
			}
			outs[k] = buf.Bytes()
		}()
	}
	wg.Wait()
	wantOut := append(bytes.Join(want, []byte("\n")), '\n')
	for k, out := range outs {
		if !bytes.Equal(out, wantOut) {
			t.Errorf("concurrent run %d of one freeze:\n got %s\nwant %s", k, out, wantOut)
		}
	}
}

// TestKeptResultsEncodeAsChanged: what a sink keeps is the struct, and a
// result changed after the run encodes as changed — also one Run encoded
// for the cache, or served from it.
func TestKeptResultsEncodeAsChanged(t *testing.T) {
	cache := newMapCache()
	for _, pass := range []string{"cold", "warm"} {
		results, err := RunCollect(context.Background(), shardTestStudy(), WithWorkers(1), WithPointCache(cache))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			r.Point = "changed"
			var buf bytes.Buffer
			if err := NewJSONLWriter(&buf).Emit(r); err != nil {
				t.Fatal(err)
			}
			if want, _ := json.Marshal(r); buf.String() != string(want)+"\n" {
				t.Errorf("%s: a changed result wrote\n%s\nwant %s", pass, buf.Bytes(), want)
			}
		}
	}
}
