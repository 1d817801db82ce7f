package campaign

import (
	"bytes"
	"testing"

	"ctsan/internal/fit"
)

// specSeeds is the seed corpus of the study-spec decoder fuzz — valid
// documents for every engine plus the malformed shapes DecodeStudy must
// reject. The HTTP submission fuzz (internal/server) seeds from the
// same inputs: the service reuses DecodeStudy verbatim, so the two
// surfaces must reject identically.
func specSeeds(f *testing.F) {
	study := NewStudy("seed",
		SANPoint{N: 3, Replicas: 10},
		SANPoint{N: 5, Replicas: 10, Net: &NetFit{
			Unicast:   fit.Bimodal{P1: 0.8, Lo1: 0.1, Hi1: 0.13, Lo2: 0.145, Hi2: 0.35},
			Broadcast: fit.Bimodal{P1: 0.7, Lo1: 0.15, Hi1: 0.2, Lo2: 0.22, Hi2: 0.5},
		}},
		LatencyPoint{N: 3, Executions: 5},
		ScenarioPoint{Name: "paper-baseline", Replicas: 1, Executions: 5},
	)
	spec, err := EncodeStudy(study)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(spec)
	f.Add(spec[:len(spec)/2])
	for _, s := range []string{
		`{"v":1,"name":"x","points":[{"engine":"san","spec":{"N":3}}]}`,
		`{"v":2,"name":"x","points":[]}`,
		`{"v":1,"name":"x","points":[{"engine":"quantum","spec":{}}]}`,
		`{"v":1,"name":"x","points":[{"engine":"san","spec":{"N":3,"Replicaz":10}}]}`,
		`{"v":1,"name":"x","points":[{"engine":"emulation","spec":{"N":1e309}}]}`,
		`{"v":1,"name":"x","points":[{"engine":"san","spec":{"N":3,"Net":{"Unicast":{"P1":2,"Lo1":0.3,"Hi1":0.1},"Broadcast":{"Lo2":-1}}}}]}`,
		`{"v":1,"name":"x","points":[{"engine":"san","spec":{"N":3,"Net":{"Unicast":{"P1z":1}}}}]}`,
		`{"v":1,"name":"x","points":[null]}`,
		`{"v":1}`,
		`[]`,
		`-`,
		``,
	} {
		f.Add([]byte(s))
	}
}

func FuzzDecodeStudy(f *testing.F) {
	specSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		study, err := DecodeStudy(data)
		if err != nil {
			return
		}
		// Anything accepted must re-encode and decode to the same
		// document: the spec format is a fixed point, or resubmitting a
		// fetched spec would drift.
		enc, err := EncodeStudy(study)
		if err != nil {
			t.Fatalf("accepted study does not re-encode: %v", err)
		}
		again, err := DecodeStudy(enc)
		if err != nil {
			t.Fatalf("re-encoded study does not decode: %v", err)
		}
		enc2, err := EncodeStudy(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encode is not a fixed point:\n%s\n%s", enc, enc2)
		}
	})
}
