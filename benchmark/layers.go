package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"ctsan/campaign"
	"ctsan/internal/checkpoint"
	"ctsan/internal/des"
	"ctsan/internal/experiment"
	"ctsan/internal/metrics"
	"ctsan/internal/neko"
	"ctsan/internal/netsim"
	"ctsan/internal/parallel"
	"ctsan/internal/rng"
	"ctsan/internal/san"
	"ctsan/internal/sanmodel"
	"ctsan/internal/scenario"
	"ctsan/internal/trace"
)

// layerBatches is how many timed batches follow the warm-up batch of
// every per-layer timing; the reported number is their median.
const layerBatches = 5

// layers collects per-layer values and the first error of any
// measurement, so the measurement code reads as a list.
type layers struct {
	ctx  context.Context
	seed uint64
	// class1n3us is experiment's class-1 n=3 cost, kept for
	// scenario.vs_experiment_ratio.
	class1n3us float64
	// scale shrinks every operation count (1 = the committed sizes; the
	// smoke test runs at 1/50).
	scale  float64
	values map[string]float64
	err    error
}

// n scales an operation count.
func (l *layers) n(ops int) int { return scaled(ops, l.scale) }

func (l *layers) check(err error) {
	if err != nil && l.err == nil {
		l.err = err
	}
}

// perOp runs batch — ops operations per call — once to warm up, then
// layerBatches times, and returns the median nanoseconds per operation.
func perOp(ops int, batch func()) float64 {
	batch()
	return medianNS(layerBatches, batch) / float64(ops)
}

// medianNS times op batches times and returns the median nanoseconds.
func medianNS(batches int, op func()) float64 {
	times := make([]float64, batches)
	for i := range times {
		t0 := time.Now()
		op()
		times[i] = float64(time.Since(t0).Nanoseconds())
	}
	return median(times)
}

// allocsPerOp is the heap allocations of one (already warmed) batch per
// operation, from the runtime's malloc counter.
func allocsPerOp(ops int, batch func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	batch()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(ops)
}

// peakLiveHeap runs fn while a second goroutine forces collections back
// to back, and returns the largest live heap seen: what fn retains while
// it runs, with garbage excluded.
func peakLiveHeap(fn func()) float64 {
	stop := make(chan struct{})
	var peak uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var m runtime.MemStats
		for {
			select {
			case <-stop:
				return
			default:
			}
			runtime.GC()
			runtime.ReadMemStats(&m)
			peak = max(peak, m.HeapAlloc)
		}
	}()
	fn()
	close(stop)
	wg.Wait()
	return float64(peak)
}

// microLayers measures every layer that needs no study output: timed
// calls into each package's public functions, one goroutine.
func (l *layers) microLayers() {
	l.desLayer()
	l.sanLayer()
	l.netsimLayer()
	l.experimentLayer()
	l.scenarioLayer()
	l.traceLayer()
	l.metricsLayer()
	l.parallelLayer()
}

func (l *layers) desLayer() {
	ops := l.n(200_000)
	var s des.Sim
	fn := func() {}
	for i := 0; i < 1000; i++ {
		s.After(float64(i)+1e12, fn) // standing queue the timed events never reach
	}
	l.values["des.schedule_fire_ns"] = perOp(ops, func() {
		for i := 0; i < ops; i++ {
			s.After(1, fn)
			s.Step()
		}
	})
	l.values["des.schedule_cancel_ns"] = perOp(ops, func() {
		for i := 0; i < ops; i++ {
			s.Cancel(s.After(1, fn))
		}
	})
}

func (l *layers) sanLayer() {
	replicas := l.n(2000)
	c1 := sanmodel.DefaultParams(5)
	c3 := sanmodel.DefaultParams(5)
	c3.FD = sanmodel.FDModel{TMR: 30, TM: 2, Kind: sanmodel.FDDeterministic}
	simulate := func(p sanmodel.Params) func() {
		return func() {
			_, err := sanmodel.SimulateContext(l.ctx, p, replicas, 1e7, l.seed, 1)
			l.check(err)
		}
	}
	l.values["san.replica_us.c1_n5"] = perOp(replicas, simulate(c1)) / 1e3
	l.values["san.replica_us.c3_n5"] = perOp(replicas, simulate(c3)) / 1e3
	l.values["san.allocs_per_replica"] = allocsPerOp(replicas, simulate(c1))

	builds := l.n(100)
	l.values["sanmodel.build_us"] = perOp(builds, func() {
		for i := 0; i < builds; i++ {
			_, err := sanmodel.Build(c1)
			l.check(err)
		}
	}) / 1e3

	model, err := sanmodel.Build(c1)
	if err != nil {
		l.check(err)
		return
	}
	root, child := rng.New(l.seed), rng.New(1)
	sim := san.NewSim(model.SAN, child)
	var fired uint64
	perBatch := perOp(1, func() {
		fired = 0
		for i := 0; i < replicas; i++ {
			root.ChildInto(child, uint64(i))
			sim.Reset(child)
			sim.Run(1e7, model.AnyDecided)
			fired += sim.Fired()
		}
	})
	l.values["san.fired_per_replica.c1_n5"] = float64(fired) / float64(replicas)
	l.values["san.ns_per_firing"] = perBatch / float64(fired)
	resets := l.n(20_000)
	l.values["san.reset_ns"] = perOp(resets, func() {
		for i := 0; i < resets; i++ {
			sim.Reset(child)
		}
	})
}

func (l *layers) netsimLayer() {
	params := netsim.DefaultParams(5)
	r := rng.New(l.seed)
	news, resets := l.n(200), l.n(5000)
	l.values["netsim.new_us"] = perOp(news, func() {
		for i := 0; i < news; i++ {
			_, err := netsim.New(params, r)
			l.check(err)
		}
	}) / 1e3
	c, err := netsim.New(params, r)
	if err != nil {
		l.check(err)
		return
	}
	l.values["netsim.reset_ns"] = perOp(resets, func() {
		for i := 0; i < resets; i++ {
			c.Reset(r)
		}
	})
}

func (l *layers) experimentLayer() {
	latency := func(spec experiment.LatencySpec) func() {
		spec.Seed = l.seed
		return func() {
			_, err := experiment.RunLatencyContext(l.ctx, spec)
			l.check(err)
		}
	}
	execs, execs3 := l.n(4000), l.n(1500)
	c1 := experiment.LatencySpec{N: 5, Executions: execs}
	c1us := perOp(execs, latency(c1)) / 1e3
	c3us := perOp(execs3, latency(experiment.LatencySpec{N: 5, Executions: execs3, FDMode: experiment.FDHeartbeat, TimeoutT: 10})) / 1e3
	l.values["experiment.exec_us.class1_n5"] = c1us
	l.values["experiment.exec_us.class2_n5"] = perOp(execs, latency(experiment.LatencySpec{N: 5, Executions: execs, Crashed: []neko.ProcessID{1}})) / 1e3
	l.values["experiment.exec_us.class3_n5_T10"] = c3us
	l.values["fd.heartbeat_overhead_us"] = c3us - c1us
	l.values["experiment.allocs_per_exec"] = allocsPerOp(execs, latency(c1))

	// What a campaign holds on to while it runs, per execution: the
	// growth of the peak live heap from a 10k- to a 50k-execution point.
	few, many := l.n(10_000), l.n(50_000)
	small := peakLiveHeap(latency(experiment.LatencySpec{N: 5, Executions: few}))
	large := peakLiveHeap(latency(experiment.LatencySpec{N: 5, Executions: many}))
	l.values["experiment.retained_bytes_per_exec"] = (large - small) / float64(many-few)

	// The class-1 n=3 campaign the scenario harness's paper-baseline
	// replicates, for scenario.vs_experiment_ratio.
	l.class1n3us = perOp(execs, latency(experiment.LatencySpec{N: 3, Executions: execs})) / 1e3
}

func (l *layers) scenarioLayer() {
	replicas := l.n(20)
	var mallocs, execsTotal float64
	for _, name := range scenario.Names() {
		s, err := scenario.Get(name)
		if err != nil {
			l.check(err)
			return
		}
		spec := scenario.CampaignSpec{Scenarios: []*scenario.Scenario{s}, Replicas: replicas, Workers: 1, Seed: l.seed}
		run := func() {
			_, err := scenario.RunCampaignContext(l.ctx, spec)
			l.check(err)
		}
		execs := replicas * s.Executions
		l.values["scenario.exec_us."+name] = perOp(execs, run) / 1e3
		mallocs += allocsPerOp(1, run)
		execsTotal += float64(execs)
	}
	l.values["scenario.allocs_per_exec"] = mallocs / execsTotal
	l.values["scenario.vs_experiment_ratio"] = l.values["scenario.exec_us.paper-baseline"] / l.class1n3us

	timeline := []byte(`{"name":"bench-partition","n":5,"timeout_t":30,"events":[
		{"kind":"partition","at":500,"groups":[[1,2],[3,4,5]]},
		{"kind":"heal","at":1100},
		{"kind":"pause-storm","at":300,"until":900,"p":1,
		 "every":{"kind":"exp","mean":60},"dur":{"kind":"uniform","lo":5,"hi":30}}]}`)
	loads := l.n(500)
	l.values["scenario.load_json_us"] = perOp(loads, func() {
		for i := 0; i < loads; i++ {
			_, err := scenario.LoadJSON(timeline)
			l.check(err)
		}
	}) / 1e3
}

// countingWriter counts the bytes a trace dump would occupy.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

func (l *layers) traceLayer() {
	replicas := l.n(10)
	s, err := scenario.Get("flaky-link")
	if err != nil {
		l.check(err)
		return
	}
	tracer := trace.New(0)
	var bytes countingWriter
	replicasOf := func(tr *trace.Tracer, dump io.Writer) func() {
		return func() {
			for i := 0; i < replicas; i++ {
				res, err := scenario.Run(s, scenario.RunConfig{Seed: l.seed + uint64(i), Tracer: tr})
				if err != nil {
					l.check(err)
					return
				}
				if dump != nil && res.Trace != nil {
					l.check(res.Trace.WriteJSONL(dump, i))
				}
			}
		}
	}
	untraced := perOp(1, replicasOf(nil, nil))
	traced := perOp(1, replicasOf(tracer, nil))
	l.values["trace.traced_over_untraced"] = traced / untraced
	replicasOf(tracer, &bytes)()
	l.values["trace.bytes_per_exec"] = float64(bytes.n) / float64(replicas*s.Executions)
}

func (l *layers) metricsLayer() {
	r := rng.New(l.seed)
	samples := make([]float64, 8000) // below the 8,192 exact cap
	for i := range samples {
		samples[i] = r.Exp(1)
	}
	l.values["metrics.add_ns"] = perOp(len(samples), func() {
		d := metrics.NewDigest(0)
		d.AddAll(samples)
	})
	sketched := metrics.NewDigest(0)
	sketched.AddAll(samples)
	sketched.AddAll(samples) // past the cap: every further add goes to the sketch
	l.values["metrics.add_sketch_ns"] = perOp(10*len(samples), func() {
		for i := 0; i < 10; i++ {
			sketched.AddAll(samples)
		}
	})
	exact := metrics.NewDigest(0)
	exact.AddAll(samples)
	var blob []byte
	codings := l.n(200)
	l.values["metrics.marshal_us"] = perOp(codings, func() {
		for i := 0; i < codings; i++ {
			var err error
			blob, err = exact.MarshalBinary()
			l.check(err)
		}
	}) / 1e3
	l.values["metrics.unmarshal_us"] = perOp(codings, func() {
		for i := 0; i < codings; i++ {
			var d metrics.Digest
			l.check(d.UnmarshalBinary(blob))
		}
	}) / 1e3
}

func (l *layers) parallelLayer() {
	units := l.n(100_000)
	l.values["parallel.stream_unit_ns"] = perOp(units, func() {
		l.check(parallel.Stream(l.ctx, 2, units,
			func(_, i int) (int, error) { return i, nil },
			func(int, int) error { return nil }))
	})
	// Speed-up of the in-process campaign at 2 workers over 1, on the
	// quarter-scale engine studies. Both engine grids end on a tail point
	// running alone, so this stays below 2 and bounds what a
	// per-execution gain can return in exec_per_s.
	for _, s := range []struct {
		key   string
		study *campaign.Study
	}{{"san", sanGrid(0.25 * l.scale)}, {"emu", emuGrid(0.25 * l.scale)}} {
		wall := func(workers int) float64 {
			// Three runs, no warm-up: a study is its own steady state.
			return medianNS(3, func() {
				l.check(campaign.Run(l.ctx, s.study, campaign.WithSeed(l.seed), campaign.WithWorkers(workers)))
			})
		}
		l.values["parallel.speedup_2w."+s.key] = wall(1) / wall(2)
	}
}

// campaignLayer times the campaign package's spec and record functions
// on the fine grid. lines are the shard records the traced fine-grid
// pass produced.
func (l *layers) campaignLayer(fine *studyInfo, lines [][]byte) {
	var study *campaign.Study
	l.values["campaign.decode_study_us"] = perOp(1, func() {
		var err error
		study, err = campaign.DecodeStudy(fine.spec)
		l.check(err)
	}) / 1e3
	var frozen *campaign.Study
	l.values["campaign.freeze_us"] = perOp(1, func() {
		var err error
		frozen, err = campaign.Frozen(study, campaign.WithSeed(l.seed))
		l.check(err)
	}) / 1e3
	if l.err != nil {
		return
	}
	hashes, err := campaign.StudyPointHashes(frozen)
	if err != nil {
		l.check(err)
		return
	}
	// One real result to encode: the grid's first emulation point.
	one := &campaign.Study{Name: frozen.Name, Points: frozen.Points[1:2]}
	results, err := campaign.RunCollect(l.ctx, one, campaign.WithWorkers(1))
	if err != nil {
		l.check(err)
		return
	}
	res := results[0]
	res.Index = 1
	var line []byte
	codings := l.n(1000)
	l.values["campaign.encode_record_us"] = perOp(codings, func() {
		for i := 0; i < codings; i++ {
			line, err = campaign.EncodeShardRecord(hashes[1], res)
			l.check(err)
		}
	}) / 1e3
	l.values["campaign.verify_record_us"] = perOp(codings, func() {
		for i := 0; i < codings; i++ {
			_, err := campaign.VerifyShardRecord(hashes, line)
			l.check(err)
		}
	}) / 1e3
	l.values["campaign.merge_us_per_point"] = perOp(len(lines), func() {
		_, _, err := campaign.MergeShardRecords(frozen, lines)
		l.check(err)
	}) / 1e3
}

// checkpointLayer times the record store with ~1 kB records, the size of
// a fine-grid shard record.
func (l *layers) checkpointLayer(dir string, record []byte) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		l.check(err)
		return
	}
	resident := func(n int) [][]byte {
		recs := make([][]byte, n)
		for i := range recs {
			recs[i] = record
		}
		return recs
	}
	seq := 0
	fresh := func(n int) *checkpoint.Store {
		seq++
		store, err := checkpoint.Open(filepath.Join(dir, fmt.Sprintf("store-%d.jsonl", seq)))
		if err != nil {
			l.check(err)
			return nil
		}
		l.check(store.AppendBatch(resident(n)))
		return store
	}
	// One Append into a store that already holds n records, on a fresh
	// store every batch so the resident count is what the name says.
	appendAt := func(n int) float64 {
		times := make([]float64, layerBatches+1)
		for i := range times {
			store := fresh(n)
			if store == nil {
				return 0
			}
			t0 := time.Now()
			l.check(store.Append(record))
			times[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
		}
		return median(times[1:])
	}
	l.values["checkpoint.append_us.r10"] = appendAt(10)
	many := l.n(1000)
	l.values["checkpoint.append_us.r1000"] = appendAt(many)
	l.values["checkpoint.append_batch_us_per_record"] = perOp(100, func() { fresh(100) }) / 1e3

	path := filepath.Join(dir, "load.jsonl")
	store, err := checkpoint.Open(path)
	if err != nil {
		l.check(err)
		return
	}
	l.check(store.AppendBatch(resident(many)))
	l.values["checkpoint.load_us_per_record"] = perOp(many, func() {
		_, _, err := checkpoint.Load(path)
		l.check(err)
	}) / 1e3
}

// wchar reads this process's cumulative write(2) byte count.
func wchar() (int64, error) {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, err
	}
	var n int64
	for _, line := range splitLines(data) {
		if _, err := fmt.Sscanf(string(line), "wchar: %d", &n); err == nil {
			return n, nil
		}
	}
	return 0, fmt.Errorf("/proc/self/io has no wchar line")
}

// shardLayer measures what `ctsan run` adds on top of the shard and
// merge it supervises: the same small range run through the supervisor
// and through `ctsan shard` + `ctsan merge` directly.
func (e *env) shardLayer(l *layers) {
	si, err := newStudyInfo(fineGrid(0.1*e.scale), e.seed)
	if err != nil {
		l.check(err)
		return
	}
	spec := filepath.Join(e.root, "supervise.json")
	if err := os.WriteFile(spec, si.spec, 0o644); err != nil {
		l.check(err)
		return
	}
	common := []string{"-study", spec, "-seed", fmt.Sprint(e.seed)}
	timed := func(dir string, args ...string) float64 {
		t0 := time.Now()
		_, _, err := run(e.ctx, e.bins.ctsan, append(args, append(common, "-dir", dir)...)...)
		l.check(err)
		return ms(time.Since(t0))
	}
	diffs := make([]float64, layerBatches+1)
	for i := range diffs {
		dir := filepath.Join(e.root, fmt.Sprintf("supervise-%d", i))
		supervised := timed(filepath.Join(dir, "a"), "run", "-shards", "1", "-procs", "1", "-workers", "2",
			"-o", filepath.Join(dir, "a.jsonl"))
		direct := timed(filepath.Join(dir, "b"), "shard", "-workers", "2", "-range", fmt.Sprintf("0:%d", si.points)) +
			timed(filepath.Join(dir, "b"), "merge", "-o", filepath.Join(dir, "b.jsonl"))
		diffs[i] = supervised - direct
		os.RemoveAll(dir)
	}
	l.values["shard.supervise_overhead_ms"] = median(diffs[1:])
}
