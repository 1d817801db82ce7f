// Package obs is the runtime telemetry of long campaigns: process-wide
// counters and gauges for work completed (executions, campaign points,
// dispatch leases, checkpoint appends) and worker-pool activity,
// published through the standard expvar registry, plus an optional HTTP
// listener exposing /debug/vars and the net/http/pprof profiling
// endpoints (the -debug-addr flag of `ctsan run`, `ctsan scenario run`
// and ctsand).
//
// The counters are plain atomics: hot paths pay one atomic add per
// counted unit and never allocate, so instrumented code is safe to leave
// enabled unconditionally. Telemetry observes wall-clock time and is
// explicitly outside the determinism contract — nothing in the
// simulation may ever read it back.
package obs

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync/atomic"
	"time"
)

// start anchors the rate and utilization gauges.
var start = time.Now()

// Counters, published as expvar ints (visible in /debug/vars):
var (
	// Executions counts completed consensus executions across all
	// engines (emulation experiments and scenario replicas), added once
	// per harness run: a long Emulation point shows at its end.
	Executions = expvar.NewInt("ctsan.executions_completed")
	// Points counts completed campaign grid points.
	Points = expvar.NewInt("ctsan.points_completed")
	// CheckpointAppends counts checkpoint records written to a store:
	// in the file and readable by a resume or merge, durable against
	// power loss only once a sync has covered them.
	CheckpointAppends = expvar.NewInt("ctsan.checkpoint_appends")
	// CheckpointSyncs counts the fsyncs that made written records
	// durable. A sharded run syncs once per time slice, not per record,
	// so on a grid of tiny points it stays far below CheckpointAppends.
	CheckpointSyncs = expvar.NewInt("ctsan.checkpoint_syncs")
	// CheckpointBytes counts the bytes the checkpoint store handed to
	// write(2): appended records plus the rare tail repair. Divided by
	// CheckpointAppends it is the write cost of one record, which stays
	// near the record size because the store never rewrites old bytes.
	CheckpointBytes = expvar.NewInt("ctsan.checkpoint_bytes")
	// CacheHits / CacheMisses / CacheEvictions count result-cache
	// lookups that were served, lookups whose point was left to run
	// (locally or on a fleet worker), and entries the LRU bound dropped
	// from memory (the campaign service's content-addressed point cache).
	// CacheDiskHits counts the lookups that missed memory and were read
	// from ctsand's -cache-dir record file.
	CacheHits      = expvar.NewInt("ctsan.cache_hits")
	CacheMisses    = expvar.NewInt("ctsan.cache_misses")
	CacheEvictions = expvar.NewInt("ctsan.cache_evictions")
	CacheDiskHits  = expvar.NewInt("ctsan.cache_disk_hits")
	// Dispatch counters (shard.Ledger, under `ctsan run` and ctsand
	// alike): LeasesGranted counts ranges handed to shard subprocesses or
	// fleet workers, LeasesCompleted leases whose full range came back
	// verified, LeasesExpired leases reaped past their deadline, and
	// LeasePointsRequeued the individual points returned to the pending
	// set by expiry or partial completions.
	LeasesGranted       = expvar.NewInt("ctsan.leases_granted")
	LeasesCompleted     = expvar.NewInt("ctsan.leases_completed")
	LeasesExpired       = expvar.NewInt("ctsan.leases_expired")
	LeasePointsRequeued = expvar.NewInt("ctsan.lease_points_requeued")
	// UploadRecords / UploadBytes count verified shard records accepted
	// from worker uploads and the (decoded) bytes they carried;
	// UploadRejected counts lines that failed CRC, hash, or version
	// verification — nonzero means a worker is broken or hostile, never a
	// wrong merge.
	UploadRecords  = expvar.NewInt("ctsan.upload_records")
	UploadBytes    = expvar.NewInt("ctsan.upload_bytes")
	UploadRejected = expvar.NewInt("ctsan.upload_rejected")
)

// Gauges (set, not accumulated), published as expvar ints:
var (
	// CacheBytes / CacheEntries are the result cache's current retained
	// size and entry count.
	CacheBytes   = expvar.NewInt("ctsan.cache_bytes")
	CacheEntries = expvar.NewInt("ctsan.cache_entries")
	// QueueDepth is the number of studies admitted but not yet running;
	// StudiesActive the number currently executing.
	QueueDepth    = expvar.NewInt("ctsan.queue_depth")
	StudiesActive = expvar.NewInt("ctsan.studies_active")
	// FleetWorkersBusy is the number of distinct holders (fleet workers,
	// or `ctsan run` slots) currently holding at least one unexpired
	// lease — the ledger's view of saturation.
	FleetWorkersBusy = expvar.NewInt("ctsan.fleet_workers_busy")
)

// Worker-pool activity, fed by internal/parallel around each work unit.
var (
	busyWorkers atomic.Int64
	busyNS      atomic.Int64
	unitsDone   atomic.Int64
)

// UnitStart marks one worker busy and returns the start instant to pass
// to UnitEnd.
func UnitStart() int64 {
	busyWorkers.Add(1)
	return time.Now().UnixNano()
}

// UnitEnd marks the worker idle again, crediting its busy time.
func UnitEnd(startNS int64) {
	busyWorkers.Add(-1)
	busyNS.Add(time.Now().UnixNano() - startNS)
	unitsDone.Add(1)
}

func init() {
	expvar.Publish("ctsan.exec_per_sec", expvar.Func(func() any {
		el := time.Since(start).Seconds()
		if el <= 0 {
			return 0.0
		}
		return float64(Executions.Value()) / el
	}))
	expvar.Publish("ctsan.workers_busy", expvar.Func(func() any {
		return busyWorkers.Load()
	}))
	expvar.Publish("ctsan.work_units_completed", expvar.Func(func() any {
		return unitsDone.Load()
	}))
	// Utilization: cumulative worker-busy time over elapsed wall time ×
	// CPU count — 1.0 means every CPU ran campaign work the whole time.
	expvar.Publish("ctsan.worker_utilization", expvar.Func(func() any {
		el := time.Since(start).Seconds() * float64(runtime.NumCPU())
		if el <= 0 {
			return 0.0
		}
		return float64(busyNS.Load()) / 1e9 / el
	}))
}

// DebugMux returns a fresh mux exposing /debug/vars (expvar) and the
// /debug/pprof/* profiling endpoints. Serve mounts it on its own
// listener; the campaign service (internal/server) mounts the same mux
// on its public listener so one port carries both the API and the
// telemetry. The mux is private — never http.DefaultServeMux — so
// importing obs cannot leak profiling endpoints onto servers the
// embedding program runs.
func DebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts the debug listener on addr (host:port; port 0 picks a
// free one) exposing the DebugMux endpoints. It returns the bound
// address and a shutdown function.
func Serve(addr string) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: DebugMux()}
	go srv.Serve(ln) //nolint:errcheck // Close shuts it down; errors after that are expected
	return ln.Addr().String(), srv.Close, nil
}
