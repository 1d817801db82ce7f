package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"ctsan/campaign"
	"ctsan/internal/checkpoint"
)

// span is one timed interval at a layer boundary. Spans of one study
// share its name; Parent is the id of the span that caused this one
// (-1 for the study itself). Times are nanoseconds since the recorder
// started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Study  string `json:"study"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory; they are written out when the run
// ends. A recorder that is off records nothing, which is how the
// harness's own overhead is measured.
type recorder struct {
	study string
	off   bool
	t0    time.Time
	spans []span
}

func (r *recorder) begin(name string, parent int) int {
	if r.off {
		return -1
	}
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Name: name, Study: r.study,
		Start: time.Since(r.t0).Nanoseconds()})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if !r.off {
		r.spans[id].End = time.Since(r.t0).Nanoseconds()
	}
}

// selfTimes sums, per span name, each span's duration minus the part its
// children cover, and returns the root span's duration beside it.
func selfTimes(spans []span) (self map[string]float64, root float64) {
	children := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	self = map[string]float64{}
	for _, s := range spans {
		self[s.Name] += float64(s.End - s.Start - children[s.ID])
		if s.Parent < 0 {
			root = float64(s.End - s.Start)
		}
	}
	return self, root
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pass is one traced in-process execution of a study.
type pass struct {
	spans   []span
	results []*campaign.Result
	lines   [][]byte // the shard records, as stored
	out     []byte   // the merged result stream
	wall    time.Duration
	// appendBytes is the process's write(2) byte count across the
	// per-point loop, whose only writer is the checkpoint store.
	appendBytes int64
}

// tracedPass rebuilds the `ctsan shard` + `ctsan merge` pipeline out of
// the public functions those commands call, one goroutine, recording a
// span around each call into a layer.
func (e *env) tracedPass(si *studyInfo, rec *recorder, dir string) (*pass, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p := &pass{}
	t0 := time.Now()
	rec.t0 = t0
	root := rec.begin("study", -1)

	id := rec.begin("campaign.decode", root)
	study, err := campaign.DecodeStudy(si.spec)
	rec.end(id)
	if err != nil {
		return nil, err
	}

	id = rec.begin("campaign.freeze", root)
	frozen, err := campaign.Frozen(study, campaign.WithSeed(e.seed))
	var hashes []string
	if err == nil {
		hashes, err = campaign.StudyPointHashes(frozen)
	}
	rec.end(id)
	if err != nil {
		return nil, err
	}

	storePath := filepath.Join(dir, "shard.jsonl")
	store, err := checkpoint.Open(storePath)
	if err != nil {
		return nil, err
	}
	before, err := wchar()
	if err != nil {
		return nil, err
	}
	for i, pt := range frozen.Points {
		if e.ctx.Err() != nil {
			return nil, errInterrupted
		}
		point := rec.begin("point", root)

		id = rec.begin("engine."+pt.Engine().String(), point)
		one := &campaign.Study{Name: frozen.Name, Points: frozen.Points[i : i+1]}
		results, err := campaign.RunCollect(e.ctx, one, campaign.WithWorkers(1))
		rec.end(id)
		if err != nil {
			return nil, err
		}
		res := results[0]
		res.Index = i // the sub-study numbered it 0; records carry grid indices
		p.results = append(p.results, res)

		id = rec.begin("campaign.encode", point)
		line, err := campaign.EncodeShardRecord(hashes[i], res)
		rec.end(id)
		if err != nil {
			return nil, err
		}

		id = rec.begin("checkpoint.append", point)
		err = store.Append(line)
		rec.end(id)
		if err != nil {
			return nil, err
		}
		rec.end(point)
	}
	after, err := wchar()
	if err != nil {
		return nil, err
	}
	p.appendBytes = after - before

	id = rec.begin("checkpoint.load", root)
	lines, _, err := checkpoint.Load(storePath)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	p.lines = lines

	id = rec.begin("campaign.merge", root)
	records, _, err := campaign.MergeShardRecords(frozen, lines)
	rec.end(id)
	if err != nil {
		return nil, err
	}

	id = rec.begin("output.write", root)
	for _, r := range records {
		p.out = append(append(p.out, r.Result...), '\n')
	}
	err = os.WriteFile(filepath.Join(dir, "results.jsonl"), p.out, 0o644)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	rec.end(root)
	p.wall = time.Since(t0)
	p.spans = rec.spans
	return p, nil
}

// engineCost sums a pass's engine spans and the discrete events and
// executions they cover.
func (p *pass) engineCost() (engineNS float64, events uint64) {
	for _, s := range p.spans {
		if strings.HasPrefix(s.Name, "engine.") {
			engineNS += float64(s.End - s.Start)
		}
	}
	for _, r := range p.results {
		events += r.Events
	}
	return engineNS, events
}

// meanOf finds a point's mean latency by label.
func (p *pass) meanOf(label string) (float64, error) {
	for _, r := range p.results {
		if r.Point == label {
			return r.Latency.Mean, nil
		}
	}
	return 0, fmt.Errorf("no point %q in traced pass", label)
}

// traced is the outcome of a traced run: every per-layer value, and the
// output checks made along the way.
type traced struct {
	values            map[string]float64
	attempted, failed int
	problems, notes   []string
}

// traceMetrics produces every per-layer metric: traced passes of the four
// studies (CPU-profiled for the three engine workloads), the timed calls
// into each layer, the supervisor comparison on the real binary, and one
// repetition of the service workload for the client-side server numbers.
func (e *env) traceMetrics() (*traced, error) {
	l := &layers{ctx: e.ctx, seed: e.seed, scale: e.scale, values: map[string]float64{}}
	t := &traced{values: l.values}
	passes := map[string]*pass{}
	infos := map[string]*studyInfo{}

	for _, w := range workloads {
		if w.service {
			continue // same study as fine-grid-shards
		}
		si, err := newStudyInfo(w.study(e.scale), e.seed)
		if err != nil {
			return nil, err
		}
		infos[si.name] = si
		dir := filepath.Join(e.root, "traced-"+si.name)
		rec := &recorder{study: si.name}
		var p *pass
		if si.name == fineGridName {
			// The same pipeline with recording off first: the difference
			// is what the span recorder costs.
			plain, err := e.tracedPass(si, &recorder{off: true}, dir+"-plain")
			if err != nil {
				return nil, err
			}
			if p, err = e.tracedPass(si, rec, dir); err != nil {
				return nil, err
			}
			l.values["harness.span_overhead_pct"] = 100 * (p.wall.Seconds() - plain.wall.Seconds()) / plain.wall.Seconds()
		} else {
			shares, samples, err := profiled(e, dir+".pprof", func() error {
				var err error
				if p, err = e.tracedPass(si, rec, dir); err != nil {
					return err
				}
				// Once more, unrecorded, for the profiler alone: the kernel
				// tick caps the sampling rate, and one pass is too short to
				// split its samples eight ways.
				_, err = e.tracedPass(si, &recorder{off: true}, dir+"-again")
				return err
			})
			if err != nil {
				return nil, err
			}
			fmt.Printf("cpu_share.*.%s: %d samples\n", w.name, samples)
			for bucket, share := range shares {
				l.values["cpu_share."+bucket+"."+w.name] = share
			}
		}
		passes[si.name] = p
		if err := writeSpans(filepath.Join("benchmark", "out", "spans-"+si.name+".jsonl"), p.spans); err != nil {
			return nil, err
		}
		// The traced pipeline must reproduce `ctsan run` byte for byte.
		t.attempted += si.points
		n, why := checkOutput(p.out, nil, si.execs)
		t.failed += n
		t.problems = append(t.problems, why...)
		if g := e.checkGolden(w, p.out, false); g == goldenMismatch {
			t.failed += si.points
			t.problems = append(t.problems, fmt.Sprintf("traced %s output differs from %s", si.name, goldenPath(w.name)))
		}
	}

	// Numbers read off the traced passes.
	for _, name := range []string{"emu-grid", "fault-scenarios"} {
		ns, events := passes[name].engineCost()
		l.values["des.events_per_exec."+name] = float64(events) / float64(infos[name].total)
		l.values["netsim.host_ns_per_event."+name] = ns / float64(events)
	}
	for _, n := range []int{3, 5, 7} {
		label := fmt.Sprintf("c1-n%d", n)
		model, err := passes["san-grid"].meanOf(label)
		if err != nil {
			return nil, err
		}
		measuredMean, err := passes["emu-grid"].meanOf(label)
		if err != nil {
			return nil, err
		}
		l.values[fmt.Sprintf("accuracy.san_vs_emu_mean_gap_pct.n%d", n)] = 100 * math.Abs(model-measuredMean) / measuredMean
	}
	fine, fineInfo := passes[fineGridName], infos[fineGridName]
	self, root := selfTimes(fine.spans)
	share := func(names ...string) float64 {
		var ns float64
		for _, n := range names {
			ns += self[n]
		}
		return ns / root
	}
	l.values["share.engine.fine-grid"] = share("engine.san", "engine.emulation", "engine.scenario")
	l.values["share.campaign.fine-grid"] = share("point", "campaign.encode", "study")
	l.values["share.checkpoint.fine-grid"] = share("checkpoint.append", "checkpoint.load")
	l.values["share.merge.fine-grid"] = share("campaign.merge")
	l.values["share.decode_freeze.fine-grid"] = share("campaign.decode", "campaign.freeze")
	l.values["share.output.fine-grid"] = share("output.write")
	l.values["campaign.run_overhead_us_per_point"] = (self["point"] + self["campaign.encode"]) / 1e3 / float64(fineInfo.points)
	l.values["checkpoint.wchar_bytes_per_point"] = float64(fine.appendBytes) / float64(fineInfo.points)

	// Timed calls into each layer.
	l.microLayers()
	l.campaignLayer(fineInfo, fine.lines)
	l.checkpointLayer(filepath.Join(e.root, "stores"), fine.lines[1])
	e.shardLayer(l)
	if l.err != nil {
		return nil, l.err
	}

	// One repetition of the service workload, timed from the client.
	svc, _ := workloadByName("fine-grid-service")
	refs, err := e.serviceRefs(fineInfo, svc)
	if err != nil {
		return nil, err
	}
	r := e.serviceRep(fineInfo, 0, refs)
	t.attempted += r.attempted
	t.failed += r.failed
	t.problems = append(t.problems, r.problems...)
	t.notes = r.notes
	for name, v := range r.layer {
		l.values[name] = v
	}
	return t, nil
}

// traceRun prints the traced run's table for people and its result
// object for the driver.
func (e *env) traceRun(con *contract) error {
	t, err := e.traceMetrics()
	if err != nil {
		return err
	}
	for _, p := range t.problems {
		fmt.Printf("PROBLEM %s\n", p)
	}
	for _, n := range t.notes {
		fmt.Printf("NOTE %s\n", n)
	}
	metrics, err := report(con.PerLayer, t.values)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(t.values))
	for name := range t.values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("\n== per-layer metrics (seed %d), %d attempted, %d failed\n", e.seed, t.attempted, t.failed)
	for _, name := range names {
		fmt.Printf("%-44s %16.4f %s\n", name, t.values[name], metrics[name].Unit)
	}
	correct := t.failed == 0 && len(t.problems) == 0
	if err := printResult(result{Correct: correct, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}); err != nil {
		return err
	}
	if !correct {
		return errors.New("output check failed")
	}
	return nil
}
