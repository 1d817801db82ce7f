// Benchmarks for the parallel campaign engine: one SAN campaign point
// (a replicated transient study at fixed parameters, the unit of the
// Fig. 7b / Table 1 / Fig. 9b sweeps) at one worker versus one worker per
// CPU. The parallel engine is bit-identical to the serial one (see
// PERFORMANCE.md), so these differ only in wall clock.
package ctsan

import (
	"context"
	"testing"

	"ctsan/internal/sanmodel"
)

// transientPoint runs one campaign point with the given worker count.
func transientPoint(b *testing.B, workers int) {
	p := sanmodel.DefaultParams(5)
	for i := 0; i < b.N; i++ {
		res, err := sanmodel.SimulateContext(context.Background(), p, 600, 1e6, uint64(i)+1, workers)
		if err != nil {
			b.Fatal(err)
		}
		if res.Digest.N() == 0 {
			b.Fatal("no replicas completed")
		}
	}
}

// BenchmarkTransientPointSerial is the pre-parallelism baseline.
func BenchmarkTransientPointSerial(b *testing.B) { transientPoint(b, 1) }

// BenchmarkTransientPointParallel fans the replicas across all CPUs.
func BenchmarkTransientPointParallel(b *testing.B) { transientPoint(b, 0) }
