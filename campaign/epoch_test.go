package campaign

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// epochGoldens are the files that hold simulation numbers. testdata/epoch
// records the results epoch beside a digest of them, so that a change
// that moves a number — and so rewrites one of them — cannot land
// without raising Epoch.
var epochGoldens = []string{
	"testdata/san.golden",
	"testdata/emulation.golden",
	"testdata/records_v1.jsonl",
	"../cmd/ctsan/testdata/run_json.golden",
	"../cmd/ctsan/testdata/trace_flaky_link.golden",
}

// goldensDigest is the sha256 over each golden's name and content.
func goldensDigest(t *testing.T) string {
	t.Helper()
	h := sha256.New()
	for _, name := range epochGoldens {
		data, err := os.ReadFile(filepath.FromSlash(name))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s\x00%d\x00", name, len(data))
		h.Write(data)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestEpochTripwire: testdata/epoch names the current Epoch and the
// digest of the goldens. A changed digest under an unchanged epoch means
// numbers moved while records, cache entries and checkpoints of the old
// numbers still match their points.
func TestEpochTripwire(t *testing.T) {
	f, err := os.Open("testdata/epoch")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recEpoch int
	var recDigest string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		if _, err := fmt.Sscanf(line, "epoch %d", &recEpoch); err == nil {
			continue
		}
		if _, err := fmt.Sscanf(line, "sha256 %s", &recDigest); err != nil {
			t.Fatalf("testdata/epoch: unreadable line %q", line)
		}
	}
	digest := goldensDigest(t)
	switch {
	case digest != recDigest && recEpoch == Epoch:
		t.Errorf("the goldens changed (sha256 %s, testdata/epoch records %s) but the results epoch did not: "+
			"raise campaign.Epoch to %d and write both into testdata/epoch", digest, recDigest, Epoch+1)
	case digest != recDigest || recEpoch != Epoch:
		t.Errorf("testdata/epoch records epoch %d, sha256 %s; the code is at epoch %d, sha256 %s",
			recEpoch, recDigest, Epoch, digest)
	}
}

// fixtureStudies are the studies testdata/records_v1.jsonl holds the
// records of, frozen.
func fixtureStudies(t *testing.T) []*Study {
	t.Helper()
	studies := []*Study{
		NewStudy("records-v1",
			SANPoint{Name: "san[0]", N: 3, Replicas: 8, Seed: 9234490958935458067},
			LatencyPoint{Name: "emulation[1]", N: 3, Executions: 6, Seed: 6706046111501870243},
			LatencyPoint{Name: "emulation[2]", N: 3, Executions: 6, TimeoutT: 10, Seed: 7872669564793924871},
			ScenarioPoint{Name: "paper-baseline", Replicas: 1, Executions: 6, Seed: 3651232281639046740}),
		NewStudy("odd <name> & \"quoted\" \\ é\u2028 \xff\xfe end",
			SANPoint{Name: "pt <&> é", N: 3, Replicas: 5, Seed: 18446744073709551557}),
	}
	for i, s := range studies {
		frozen, err := Frozen(s)
		if err != nil {
			t.Fatal(err)
		}
		studies[i] = frozen
	}
	return studies
}

// TestNextEpochRefusesEveryRecord: the records of testdata/records_v1.jsonl
// belong to their points at epoch 0 and to none at epoch 1 — where
// resume and merge (VerifyShardRecord, MergeShardRecords), the fleet
// coordinator (the same check on uploads) and a cache file holding them
// (indexed by point hash, none of which is a point's now) all run those
// points again.
func TestNextEpochRefusesEveryRecord(t *testing.T) {
	lines := fixtureRecords(t)
	byStudy := [][][]byte{lines[:4], lines[4:]}
	for i, s := range fixtureStudies(t) {
		if _, skipped, err := MergeShardRecords(s, byStudy[i]); err != nil || skipped != 0 {
			t.Fatalf("epoch 0: %q does not merge its fixture records: skipped %d, %v", s.Name, skipped, err)
		}
	}

	epoch = 1
	t.Cleanup(func() { epoch = Epoch })
	for i, s := range fixtureStudies(t) {
		hashes, err := StudyPointHashes(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range byStudy[i] {
			if _, err := VerifyShardRecord(hashes, line); err == nil {
				t.Errorf("epoch 1 accepted an epoch-0 record of %q: %.120s", s.Name, line)
			}
		}
		if _, skipped, err := MergeShardRecords(s, byStudy[i]); err == nil || skipped != len(byStudy[i]) {
			t.Errorf("epoch 1 merged epoch-0 records of %q: skipped %d, %v", s.Name, skipped, err)
		}
		for _, line := range byStudy[i] {
			rec, err := DecodeShardRecord(line)
			if err != nil {
				t.Fatal(err)
			}
			if slices.Contains(hashes, rec.PointHash) {
				t.Errorf("epoch 1 keys an epoch-0 record of %q under one of its points: a cache would serve it", s.Name)
			}
		}
	}
}
