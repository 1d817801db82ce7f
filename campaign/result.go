package campaign

import (
	"math"

	"ctsan/internal/metrics"
)

// Summary condenses a point's latency digest (milliseconds).
type Summary struct {
	// N is the number of recorded samples.
	N int `json:"n"`
	// Mean and CI90 are the sample mean and its 90% confidence half-width;
	// CI90 is 0 — no interval — when N < 2, where none is defined.
	Mean float64 `json:"mean_ms"`
	CI90 float64 `json:"ci90_ms"`
	// P50/P90/P99 are latency quantiles (exact below the digest's cap,
	// sketched beyond it); Min/Max the exact extremes.
	P50 float64 `json:"p50_ms"`
	P90 float64 `json:"p90_ms"`
	P99 float64 `json:"p99_ms"`
	Min float64 `json:"min_ms"`
	Max float64 `json:"max_ms"`
}

// summarize flattens a digest into a Summary. An empty digest yields the
// zero Summary (a point whose every execution aborted). One sample has no
// confidence interval: the digest says +Inf, which JSON cannot carry, so
// the summary says 0 as the empty one does (how many samples a point keeps
// is known only after it ran, so freeze cannot reject it).
func summarize(d *metrics.Digest) Summary {
	if d.N() == 0 {
		return Summary{}
	}
	ps := d.Quantiles(0.50, 0.90, 0.99)
	s := Summary{
		N:    d.N(),
		Mean: d.Mean(),
		P50:  ps[0],
		P90:  ps[1],
		P99:  ps[2],
		Min:  d.Min(),
		Max:  d.Max(),
	}
	if s.N >= 2 {
		s.CI90 = d.CI(0.90)
	}
	return s
}

// Result is the outcome of one study point, shaped identically across
// engines so JSON lines, tables, and downstream analyses need no per-engine
// cases. Engine-specific detail stays reachable through Raw.
type Result struct {
	// Study and Point identify the cell; Index is the point's position in
	// the study grid (results are emitted in Index order).
	Study string `json:"study"`
	Point string `json:"point"`
	Index int    `json:"index"`
	// Engine executed the point; Seed is the effective per-point seed.
	Engine Engine `json:"engine"`
	Seed   uint64 `json:"seed"`
	// Replicas is the number of Monte-Carlo replicas the point ran (1 for
	// a plain emulation campaign).
	Replicas int `json:"replicas"`
	// Latency summarizes the retained latency samples (ms): consensus
	// executions for Emulation/Scenario points, transient-study replicas
	// for SAN points.
	Latency Summary `json:"latency"`
	// Aborted counts discarded units: executions that never decided, or
	// SAN replicas truncated by the rounds guard / horizon.
	Aborted int `json:"aborted"`
	// Texp is the total simulated time (ms) and Events the discrete-event
	// count, where the engine reports them (zero for SAN points).
	Texp   float64 `json:"texp_ms,omitempty"`
	Events uint64  `json:"des_events,omitempty"`
	// Suspicions / WrongSuspicions count failure-detector trust→suspect
	// transitions (Scenario points, where the timeline supplies ground
	// truth for wrongness).
	Suspicions      int `json:"suspicions,omitempty"`
	WrongSuspicions int `json:"wrong_suspicions,omitempty"`
	// TMR and TM are the Chen et al. failure-detector QoS metrics (ms),
	// populated for heartbeat campaigns.
	TMR float64 `json:"tmr_ms,omitempty"`
	TM  float64 `json:"tm_ms,omitempty"`

	// digest is the point's streaming latency digest; Latency flattens
	// it. The digest stays outside the JSON schema (JSONL lines stay one
	// screen wide at paper fidelity); use Samples or Quantile for
	// programmatic access.
	digest *metrics.Digest

	// raw is the engine-native result (*experiment.LatencyResult,
	// *san.TransientResult, or *scenario.Report).
	raw any
}

// Samples returns the retained latency samples in execution order. It
// replaces the raw sample slice earlier revisions carried on every
// result: samples are now derived from the point's streaming digest, so
// they are available exactly while the digest is in exact mode (up to
// its cap, metrics.DefaultExactCap) and nil beyond it — million-
// execution campaigns deliberately do not retain raw samples. The slice
// is the digest's own buffer: callers must not modify it.
func (r *Result) Samples() []float64 {
	if r.digest == nil {
		return nil
	}
	return r.digest.Exact()
}

// Quantile returns the q-quantile (0 <= q <= 1) of the point's latency
// digest: exact below the digest's cap, a deterministic sketch estimate
// beyond it, NaN if the point kept no samples.
func (r *Result) Quantile(q float64) float64 {
	if r.digest == nil {
		return math.NaN()
	}
	return r.digest.Quantile(q)
}

// Raw returns the engine-native result: *experiment.LatencyResult for
// Emulation points, *san.TransientResult for SAN points, and
// *scenario.Report for Scenario points. Only packages inside this module
// can name those types; external users work with the flattened fields.
func (r *Result) Raw() any { return r.raw }
