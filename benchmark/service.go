package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ctsan/internal/stats"
)

const (
	warmResubmits = 5
	statusGets    = 2000
	statusConns   = 2
	fleetWorkers  = 2
	// requestTimeout turns a wedged daemon into a failed repetition
	// instead of a hung benchmark; no request or stream of these workloads
	// lasts more than a few seconds.
	requestTimeout = time.Minute
)

// serviceRefs are the untimed `ctsan run` outputs the service's streams
// must equal byte for byte: the fine-grid-shards output at the run's
// seed (cold and warm streams) and at seed+1 (fleet stream).
type serviceRefs struct {
	local, fleet []byte
}

func (e *env) serviceRefs(si *studyInfo, w workload) (*serviceRefs, error) {
	refs := &serviceRefs{}
	for i, dst := range []*[]byte{&refs.local, &refs.fleet} {
		dir := filepath.Join(e.root, fmt.Sprintf("%s-ref%d", w.name, i))
		out, _, _, _, err := e.ctsanRun(si, w, e.seed+uint64(i), dir)
		os.RemoveAll(dir)
		if err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
		*dst = out
	}
	return refs, nil
}

// studyStatus is the part of the service's status JSON the harness reads.
type studyStatus struct {
	ID          string `json:"id"`
	Status      string `json:"status"`
	Error       string `json:"error"`
	CacheHits   int64  `json:"cache_hits"`
	CacheMisses int64  `json:"cache_misses"`
	Fleet       *struct {
		Granted int64 `json:"granted"`
	} `json:"fleet"`
}

// serviceClient counts every request it makes and every non-2xx answer.
type serviceClient struct {
	base string
	http *http.Client
	mu   sync.Mutex
	reqs int
	bad  int
}

func (c *serviceClient) count(ok bool) {
	c.mu.Lock()
	c.reqs++
	if !ok {
		c.bad++
	}
	c.mu.Unlock()
}

// do performs one request and hands the 2xx response to read.
func (c *serviceClient) do(hc *http.Client, method, path string, body []byte, read func(io.Reader) error) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	res, err := hc.Do(req)
	if err != nil {
		c.count(false)
		return err
	}
	defer res.Body.Close()
	ok := res.StatusCode/100 == 2
	c.count(ok)
	if !ok {
		msg, _ := io.ReadAll(io.LimitReader(res.Body, 300)) // diagnostics only
		return fmt.Errorf("%s %s: %s: %s", method, path, res.Status, bytes.TrimSpace(msg))
	}
	return read(res.Body)
}

func (c *serviceClient) getJSON(path string, v any) error {
	return c.do(c.http, http.MethodGet, path, nil, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(v)
	})
}

// submission is one study pushed through the service: POST, then the
// result stream read to EOF.
type submission struct {
	id          string
	t0          time.Time
	out         []byte
	submit      time.Duration // POST round trip
	firstResult time.Duration // POST start to first result line
	wall        time.Duration // POST start to last result byte
}

// post submits a spec and returns once the service admitted it.
func (c *serviceClient) post(spec []byte, query string) (*submission, error) {
	s := &submission{t0: time.Now()}
	var st studyStatus
	err := c.do(c.http, http.MethodPost, "/api/v1/studies"+query, spec, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&st)
	})
	s.id, s.submit = st.ID, time.Since(s.t0)
	return s, err
}

// stream reads the submission's /results to EOF.
func (c *serviceClient) stream(s *submission) error {
	err := c.do(c.http, http.MethodGet, "/api/v1/studies/"+s.id+"/results", nil, func(r io.Reader) error {
		br := bufio.NewReader(r)
		for {
			line, err := br.ReadBytes('\n')
			if len(line) > 0 && s.out == nil {
				s.firstResult = time.Since(s.t0)
			}
			s.out = append(s.out, line...)
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
		}
	})
	s.wall = time.Since(s.t0)
	return err
}

// submit posts the spec and streams its results to EOF.
func (c *serviceClient) submit(spec []byte, query string) (*submission, error) {
	s, err := c.post(spec, query)
	if err != nil {
		return s, err
	}
	return s, c.stream(s)
}

// serviceRep is one repetition of fine-grid-service against a freshly
// started daemon: cold submit, warm resubmits, status polling, and a
// fleet-mode study served by two worker processes.
func (e *env) serviceRep(si *studyInfo, i int, refs *serviceRefs) *rep {
	r := &rep{layer: map[string]float64{}}
	dir := filepath.Join(e.root, fmt.Sprintf("service-rep%d", i))
	defer os.RemoveAll(dir)
	allPoints := (1+warmResubmits+1)*si.points + 1
	spec := si.spec

	d, err := startDaemon(e.ctx, e.bins.ctsand)
	if err != nil {
		r.attempted = allPoints
		r.fail(allPoints, "rep %d: %v", i, err)
		return r
	}
	c := &serviceClient{base: d.base, http: &http.Client{Timeout: requestTimeout}}
	var kids []*child
	// finish stops everything the repetition started, folds usage and
	// request counts, and fails the repetition on strays or bad exits.
	finish := func() *rep {
		c.http.CloseIdleConnections()
		for _, k := range kids {
			// A worker that holds no lease when the study ends sleeps a
			// quarter of the lease TTL before it asks again and learns so;
			// the interrupt ends it cleanly (exit 0) without that wait.
			_ = k.cmd.Process.Signal(os.Interrupt) // already gone is fine: the wait reports its exit
			u, err := k.waitWithin(10 * time.Second)
			r.use.add(u)
			if err != nil {
				r.fail(si.points, "rep %d: %v", i, err)
			}
			if k.stray() {
				r.fail(si.points, "rep %d: a worker left a stray process", i)
			}
		}
		u, err := d.stop(10 * time.Second)
		r.use.add(u)
		r.layer["server.daemon_rss_mib"] = u.rssMiB
		if err != nil {
			r.fail(allPoints, "rep %d: %v", i, err)
		}
		if d.stray() {
			r.fail(allPoints, "rep %d: ctsand left a stray process", i)
		}
		r.attempted += c.reqs
		r.failed += c.bad
		return r
	}
	// streamed checks one submission's stream and accounts for it.
	streamed := func(what string, si *studyInfo, s *submission, err error, ref []byte) bool {
		r.attempted += si.points
		if err != nil {
			r.fail(si.points, "rep %d: %s: %v", i, what, err)
			return false
		}
		failed, problems := checkOutput(s.out, ref, si.execs)
		r.failed += failed
		for _, p := range problems {
			r.problems = append(r.problems, fmt.Sprintf("rep %d: %s: %s", i, what, p))
		}
		r.wall += s.wall
		r.execs += si.total
		return true
	}
	query := fmt.Sprintf("?seed=%d", e.seed)

	// Phase 1: cold local submit.
	cold, err := c.submit(spec, query)
	if !streamed("cold submit", si, cold, err, refs.local) {
		return finish()
	}
	r.out = cold.out
	r.layer["server.submit_ms"] = ms(cold.submit)
	r.layer["server.first_result_ms"] = ms(cold.firstResult)
	r.layer["server.cold_points_per_s"] = float64(si.points) / cold.wall.Seconds()

	// Phase 2: warm resubmits of the same spec and seed.
	var warmRates []float64
	var hits, lookups int64
	for k := 0; k < warmResubmits; k++ {
		warm, err := c.submit(spec, query)
		if !streamed("warm resubmit", si, warm, err, refs.local) {
			return finish()
		}
		warmRates = append(warmRates, float64(si.points)/warm.wall.Seconds())
		var st studyStatus
		if err := c.getJSON("/api/v1/studies/"+warm.id, &st); err != nil {
			r.fail(0, "rep %d: warm status: %v", i, err)
			continue
		}
		hits += st.CacheHits
		lookups += st.CacheHits + st.CacheMisses
	}
	r.layer["server.warm_points_per_s"] = median(warmRates)
	if lookups > 0 {
		r.layer["server.cache_hit_ratio"] = float64(hits) / float64(lookups)
	}

	// Phase 3: status GETs over keep-alive connections, closed loop.
	lat := e.pollStatus(c, cold.id)
	if len(lat) > 0 {
		r.layer["server.status_p50_us"] = stats.QuantileSorted(lat, 0.50)
		r.layer["server.status_p99_us"] = stats.QuantileSorted(lat, 0.99)
	}

	// Phase 4: a fleet-mode study at seed+1 (so the cache cannot serve
	// it), executed by two pulling worker processes. It is admitted
	// behind a short local study that holds the daemon's only slot: a
	// fleet study submitted to an idle daemon can deadlock it (the 202's
	// status snapshot against the slot's cache pass; see README.md), and
	// a benchmark runs workloads on which no operation fails. The timed
	// interval covers both studies, from the holder's POST to the fleet
	// stream's last byte.
	hi, err := newStudyInfo(slotHolder(), e.seed)
	if err != nil {
		r.fail(0, "rep %d: %v", i, err)
		return finish()
	}
	holder, err := c.post(hi.spec, query)
	var fleet *submission
	if err == nil {
		fleet, err = c.post(spec, fmt.Sprintf("?mode=fleet&seed=%d", e.seed+1))
	}
	if err == nil {
		err = c.stream(holder)
	}
	if !streamed("slot holder", hi, holder, err, nil) {
		return finish()
	}
	for k := 0; k < fleetWorkers && err == nil; k++ {
		var w *child
		w, err = start(e.ctx, e.bins.ctsan, "worker",
			"-server", d.base, "-study-id", fleet.id,
			"-name", fmt.Sprintf("bench-w%d", k),
			"-dir", filepath.Join(dir, fmt.Sprintf("worker%d", k)),
			"-workers", "1")
		if err == nil {
			kids = append(kids, w)
		}
	}
	if err == nil {
		err = c.stream(fleet)
	}
	// The daemon can end the fleet stream before the last upload's lines
	// reach it (hub.finish races the upload handler's appends; see
	// README.md). The lines are there a moment later, so read the stream
	// again, as a client would, and keep the clock running meanwhile.
	retries := 0
	for ; err == nil && bytes.Count(fleet.out, []byte("\n")) < si.points && retries < 200; retries++ {
		time.Sleep(5 * time.Millisecond)
		fleet.out = nil
		err = c.stream(fleet)
	}
	r.layer["server.stream_retries"] = float64(retries)
	if retries > 0 {
		r.notes = append(r.notes, fmt.Sprintf("rep %d: fleet stream ended early, complete after %d re-reads", i, retries))
	}
	ok := streamed("fleet study", si, fleet, err, refs.fleet)
	var st studyStatus
	if fleet != nil {
		if err := c.getJSON("/api/v1/studies/"+fleet.id, &st); err != nil {
			r.fail(0, "rep %d: fleet status: %v", i, err)
		} else if st.Status != "done" {
			r.fail(0, "rep %d: fleet study ended %q: %s", i, st.Status, st.Error)
		}
	}
	if !ok {
		return finish()
	}
	// Both studies ran inside one interval, holder POST to fleet EOF; the
	// two walls just added overlap by the holder's.
	r.wall += fleet.t0.Sub(holder.t0) - holder.wall
	fleetAlone := fleet.t0.Add(fleet.wall).Sub(holder.t0.Add(holder.wall))
	r.layer["server.fleet_points_per_s"] = float64(si.points) / fleetAlone.Seconds()
	if st.Fleet != nil && st.Fleet.Granted > 0 {
		r.layer["server.lease_grants"] = float64(st.Fleet.Granted)
		r.layer["server.points_per_lease"] = float64(si.points) / float64(st.Fleet.Granted)
	}
	var vars struct {
		UploadBytes int64 `json:"ctsan.upload_bytes"`
	}
	if err := c.getJSON("/debug/vars", &vars); err != nil {
		r.fail(0, "rep %d: /debug/vars: %v", i, err)
	} else {
		r.layer["server.upload_bytes_per_point"] = float64(vars.UploadBytes) / float64(si.points)
	}
	return finish()
}

// pollStatus issues statusGets status requests split over statusConns
// keep-alive connections, each connection sending its next request only
// after the previous one completed, and returns the latencies in µs.
func (e *env) pollStatus(c *serviceClient, id string) []float64 {
	per := statusGets / statusConns
	lat := make([][]float64, statusConns)
	var wg sync.WaitGroup
	for k := 0; k < statusConns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}, Timeout: requestTimeout}
			defer hc.CloseIdleConnections()
			for n := 0; n < per && e.ctx.Err() == nil; n++ {
				t0 := time.Now()
				err := c.do(hc, http.MethodGet, "/api/v1/studies/"+id, nil, func(r io.Reader) error {
					_, err := io.Copy(io.Discard, r)
					return err
				})
				if err == nil {
					lat[k] = append(lat[k], float64(time.Since(t0).Nanoseconds())/1e3)
				}
			}
		}(k)
	}
	wg.Wait()
	var all []float64
	for _, l := range lat {
		all = append(all, l...)
	}
	sort.Float64s(all)
	return all
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
