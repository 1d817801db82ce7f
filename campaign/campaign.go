package campaign

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"

	"ctsan/internal/experiment"
	"ctsan/internal/parallel"
	"ctsan/internal/sanmodel"
)

// Engine identifies which evaluation engine executes a Point. The paper's
// methodology is exactly this duality — the same campaign run against a
// simulated analytical model and against an emulated implementation — and
// the scenario layer extends it with declarative fault injection.
type Engine int

const (
	// SAN solves the stochastic activity network model of the consensus
	// algorithm (§3) by replicated transient simulation.
	SAN Engine = iota + 1
	// Emulation measures the real protocol stack on the emulated cluster
	// (§4): sequential consensus executions with a live failure detector.
	Emulation
	// Scenario runs a declarative fault/workload timeline from the
	// scenario registry (or inline JSON) on the emulated cluster.
	Scenario
)

// String returns the engine's stable lowercase name (used in JSON output).
func (e Engine) String() string {
	switch e {
	case SAN:
		return "san"
	case Emulation:
		return "emulation"
	case Scenario:
		return "scenario"
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// MarshalText implements encoding.TextMarshaler so Engine renders as its
// name in JSON results.
func (e Engine) MarshalText() ([]byte, error) { return []byte(e.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler: the inverse of
// MarshalText, needed to decode serialized Results (shard records) and
// study specs.
func (e *Engine) UnmarshalText(text []byte) error {
	switch string(text) {
	case "san":
		*e = SAN
	case "emulation":
		*e = Emulation
	case "scenario":
		*e = Scenario
	default:
		return fmt.Errorf("campaign: unknown engine %q", text)
	}
	return nil
}

// Point is one cell of a study grid: an engine binding plus the
// engine-specific configuration. The three implementations are
// LatencyPoint (Emulation), SANPoint (SAN), and ScenarioPoint (Scenario).
// The interface is sealed: the executor needs module-internal machinery,
// so external packages compose studies from the provided point types.
type Point interface {
	// Engine reports which engine executes the point.
	Engine() Engine
	// Label returns the point's display name (may be empty; Run falls
	// back to "engine[index]").
	Label() string
	// freeze returns the point with every default Run would otherwise
	// resolve lazily materialized under the study options — display
	// label, derived seed, replica count — and the frozen point prepared
	// to run. It builds the engine input once and checks it with the
	// engine's own rules: the one place a point is checked, before
	// anything runs or is leased out. Sealing method: only this package
	// implements Point.
	freeze(o *options, index int) (Point, prepared, error)
}

// prepared is a frozen point ready to run: its runner over the engine
// input freeze built and, for a chain — a point no second worker can
// join — its estimated cost (chainCost); 0 marks a divisible point,
// whose replica loop idle workers join.
type prepared struct {
	run   pointRunner
	chain float64
}

// pointRunner executes one prepared point under a context, as worker w of
// the run's pool, on the run's executor.
type pointRunner func(ctx context.Context, e *executor, w int) (*Result, error)

// executor is what a Run executes on: its pool and what the pool's
// workers retain across points — the engine assemblies each has built
// so far, in bounded sets keyed by shape (internal/keyed), one set per
// kind and pool worker. A point whose shape the worker has seen builds
// nothing — the retained assembly is rewound, bit-identically to a fresh
// one — so a study pays for each distinct shape once per worker, not
// once per point. The pool never overlaps two calls under one worker
// index, at either level, so entry w of each slice is worker w's alone
// and needs no locking.
//
// A Run makes its own executor, and nothing of it outlives the Run. One
// made by SharedExecutor serves every Run it is passed to, one Run at a
// time, so a process that runs many small studies — a fleet worker's
// leases — pays for each shape once in its life; it holds no goroutine
// between Runs, and what it retains is bounded by the sets' capacity.
type executor struct {
	// pool is the one worker budget: points are its top-level units, and
	// SAN and Scenario points open their replica loops on it, so a worker
	// with no point left to start runs replicas of the points still in
	// flight.
	pool *parallel.Pool
	// harnesses holds each worker's replica harnesses: a Latency point
	// runs on its worker's set, a Scenario replica on the set of whichever
	// worker runs it, and equal shapes share one harness across both
	// engines.
	harnesses []experiment.Harnesses
	// models holds each worker's built SAN models, keyed by everything the
	// build reads. A model's solver keeps one simulator per pool worker
	// that has run its replicas: the worker whose point it is, and any
	// that joined at the study's tail.
	models []sanmodel.Models
	// busy is held by the Run executing on the executor.
	busy atomic.Bool
}

// newExecutor returns an executor of Workers(workers) pool workers that
// has built nothing yet.
func newExecutor(workers int) *executor {
	e := &executor{pool: parallel.NewPool(workers)}
	e.empty()
	return e
}

// empty drops every retained assembly.
func (e *executor) empty() {
	e.harnesses = make([]experiment.Harnesses, e.pool.Workers())
	e.models = make([]sanmodel.Models, e.pool.Workers())
}

// Study is a named grid of points, executed by Run. The zero value is
// unusable; build studies with NewStudy (or a composite literal with
// Name and Points set).
type Study struct {
	// Name identifies the study in results and progress output.
	Name string
	// Points are the grid cells, executed with deterministic per-index
	// seeding; results are emitted in point-index order.
	Points []Point

	// frozen, set by Frozen on the study it returns, is that freeze:
	// running, enumerating or hashing the study reuses it.
	frozen *frozenGrid
}

// frozenGrid is what freezing a study made: each point prepared to run
// and its PointHash, with its own copy of the points they were made
// from.
type frozenGrid struct {
	points []Point
	prep   []prepared
	hashes []string
}

// grid returns the study's remembered freeze, or nil when it has none
// or when Points are no longer the points that freeze was made from
// (compared point by point, reflect.DeepEqual) — the study was given
// other points, grew, or had a point replaced in place. Such a study freezes again, so a remembered prepared point or
// hash never runs or keys the cache under another point's label.
func (s *Study) grid() *frozenGrid {
	g := s.frozen
	if g == nil || !slices.EqualFunc(s.Points, g.points, func(p, q Point) bool { return reflect.DeepEqual(p, q) }) {
		return nil
	}
	return g
}

// NewStudy builds a study from points.
func NewStudy(name string, points ...Point) *Study {
	return &Study{Name: name, Points: points}
}

// Add appends points and returns the study for chaining.
func (s *Study) Add(points ...Point) *Study {
	s.Points = append(s.Points, points...)
	return s
}

// options is the resolved functional-option state of one Run call.
type options struct {
	seed     uint64
	workers  int
	replicas int
	progress func(done, total int, last *Result)
	// completed, when set, sees each result on the worker that produced
	// it, the moment its point completes — in completion order, not index
	// order, and before the result is buffered for emission. Calls are
	// not serialized. An error fails the point. RunRecords emits records
	// through it.
	completed func(i int, res *Result) error
	// exec is what the run executes on: the executor SharedExecutor
	// passed in, or else one Run makes for itself before the pool starts,
	// dropped with the options when Run returns.
	exec *executor
}

// Option configures a Run call.
type Option func(*options)

// WithSeed sets the study root seed (default 1). Every point derives its
// own seed from a child stream keyed by its index — unless the point pins
// an explicit Seed — so a study is bit-identical for a given seed at any
// worker count.
func WithSeed(seed uint64) Option { return func(o *options) { o.seed = seed } }

// WithWorkers sets the width of the one pool a study runs on — its points,
// and the Monte-Carlo replicas inside them once fewer points than workers
// are left: 0 (the default) means one worker per CPU, 1 forces the serial
// reference path. Results do not depend on the count.
func WithWorkers(w int) Option { return func(o *options) { o.workers = w } }

// SharedExecutor returns an option that runs every Run it is passed to on
// one executor of Workers(workers) pool workers, made here: the pool and
// the engine assemblies its workers build are kept from one Run to the
// next, so a later study pays nothing for a shape an earlier one built.
// Results are those of a Run on its own executor, bit for bit. The
// executor serves one Run at a time: a Run passed it while another runs
// on it fails without running anything, as does one whose WithWorkers
// asks for another width. A Run that fails leaves it holding no
// assembly. What it retains between Runs is bounded by the per-worker
// sets' capacity (internal/keyed), and it holds no goroutine.
func SharedExecutor(workers int) Option {
	e := newExecutor(workers)
	return func(o *options) { o.exec = e }
}

// WithReplicas sets the default replica count for SAN and Scenario points
// that do not set their own (default: 1000 for SAN, 1 for Scenario).
func WithReplicas(r int) Option { return func(o *options) { o.replicas = r } }

// WithProgress installs the run's in-order result hook, called once per
// point as its result is delivered: done results so far, the study's
// total point count, and the result just delivered. A later WithProgress
// replaces an earlier one; RunCollect keeps the caller's and collects
// behind it.
//
// The callback's ordering guarantees are part of the API:
//
//   - Sequential: calls never overlap — the next call does not begin
//     until the previous one returns, so the callback needs no locking
//     even on a parallel campaign.
//   - Deterministic order: calls arrive in point-index order (done is
//     exactly 1, 2, …, total) regardless of the worker count or which
//     point finished computing first.
//
// Calls may run on different worker goroutines — only the ordering, not
// the goroutine identity, is guaranteed. The callback executes inside
// the emission critical section, so a slow callback delays result
// delivery, not correctness.
func WithProgress(fn func(done, total int, last *Result)) Option {
	return func(o *options) { o.progress = fn }
}
