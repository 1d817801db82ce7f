package sanmodel

import (
	"testing"

	"ctsan/internal/rng"
	"ctsan/internal/san"
)

// BenchmarkConsensusReplica is the path a SAN study spends its time in:
// one retained simulator of the consensus net, rewound and run once per
// op (ChildInto + Reset + Run) — what Solver.Transient does per replica,
// without the pool. Construction (Build, NewSim) is outside the timer;
// BenchmarkSANEngine gates that. ns/firing divides the replica by the
// activity completions it executed, so the three shapes compare.
func BenchmarkConsensusReplica(b *testing.B) {
	c3 := DefaultParams(5)
	c3.FD = FDModel{TMR: 30, TM: 2, Kind: FDDeterministic}
	for _, c := range []struct {
		name string
		p    Params
	}{
		{"c1_n5", DefaultParams(5)},
		{"c1_n7", DefaultParams(7)},
		{"c3_n5", c3},
	} {
		b.Run(c.name, func(b *testing.B) {
			model, err := Build(c.p)
			if err != nil {
				b.Fatal(err)
			}
			root, child := rng.New(1), rng.New(1)
			sim := san.NewSim(model.SAN, child)
			sim.Run(1e7, model.Done) // grow the buffers before timing
			var fired uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				root.ChildInto(child, uint64(i))
				sim.Reset(child)
				if _, stopped := sim.Run(1e7, model.Done); !stopped {
					b.Fatal("did not decide")
				}
				fired += sim.Fired()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(fired), "ns/firing")
		})
	}
}
