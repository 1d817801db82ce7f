// Command ctsand is the campaign service daemon: the HTTP front end to
// the campaign engine (internal/server). Concurrent users POST v1 study
// specs — the JSON every ctsan dispatch command reads with -study —
// browse the scenario registry, stream per-point results live (JSONL or
// SSE), and fetch final digests. Repeated points are served from a
// content-addressed in-memory result cache; determinism makes a cache
// hit byte-identical to a fresh run.
//
//	ctsand -addr localhost:8321
//	ctsand -addr :0 -workers 8 -max-active 2 -queue 16 -cache-mb 64
//	ctsand -addr :8321 -cache-dir /var/lib/ctsan/cache -lease-ttl 15s
//
// Admission is bounded: when -queue studies are already waiting the
// service answers 429 with Retry-After. At most -max-active studies run
// concurrently, each on an equal share of the -workers pool. SIGINT or
// SIGTERM starts a graceful drain: new submissions get 503, running
// studies finish (up to -drain-timeout, then they are canceled through
// the campaign ctx plumbing), and the process exits 0.
//
// Studies submitted with ?mode=fleet are not run on the local pool:
// the service coordinates external `ctsan worker` processes that pull
// contiguous point ranges over the lease API (a lease lives -lease-ttl
// without renewal and aims at 1 s of work; a worker that finds every
// point leased out is told to ask again in 200 ms), verifies the
// records they upload as plain JSONL, and folds them into the same
// byte-identical result stream. With -cache-dir every cached record is
// also appended to a file there, once, and a point memory no longer
// holds (evicted, or computed before a restart) is read back from it,
// not run again: -cache-mb bounds memory only.
//
// With -debug the service's own listener also serves /debug/vars and
// /debug/pprof — including the cache hit/miss/eviction and queue-depth
// gauges; -debug-addr additionally starts the standalone telemetry
// listener shared by all ctsan CLIs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ctsan/internal/cliflags"
	"ctsan/internal/server"
)

func main() {
	os.Exit(cliflags.ExitStatus("ctsand", run(os.Args[1:]), os.Stderr))
}

// run is the whole daemon; its error becomes the exit status by the rule
// every ctsan command follows (cliflags.ExitStatus).
func run(args []string) error {
	fs := flag.NewFlagSet("ctsand", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", "localhost:8321", "listen address (use :0 for an ephemeral port)")
		workers      = cliflags.Workers(fs)
		maxActive    = fs.Int("max-active", 2, "studies executing concurrently, each on workers/max-active goroutines")
		queueDepth   = fs.Int("queue", 16, "admission queue depth; submissions beyond it get 429")
		cacheMB      = fs.Int("cache-mb", 64, "content-addressed result cache budget in MiB (0 disables)")
		cacheDir     = fs.String("cache-dir", "", "keep every cached record in a file here, read back when memory misses (needs -cache-mb > 0)")
		leaseTTL     = fs.Duration("lease-ttl", 15*time.Second, "fleet lease lifetime without renewal before its range is re-leased")
		seed         = cliflags.Seed(fs)
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget before running studies are canceled")
		debug        = fs.Bool("debug", true, "serve /debug/vars and /debug/pprof on the service listener")
		debugAddr    = cliflags.DebugAddr(fs)
	)
	if err := cliflags.Parse(fs, args); err != nil {
		return err
	}
	if err := cliflags.CheckSeed(*seed); err != nil {
		return err
	}
	// Zero keeps its documented meaning: a default, no cache, or no drain.
	switch {
	case *maxActive < 0:
		return cliflags.Usagef("-max-active %d: want 0 (the default, 2) or a positive count", *maxActive)
	case *queueDepth < 0:
		return cliflags.Usagef("-queue %d: want 0 (the default, 16) or a positive depth", *queueDepth)
	case *cacheMB < 0:
		return cliflags.Usagef("-cache-mb %d: want 0 (no cache) or a positive budget", *cacheMB)
	case *cacheMB == 0 && *cacheDir != "":
		return cliflags.Usagef("-cache-dir %s: -cache-mb 0 disables the cache it would hold", *cacheDir)
	case *leaseTTL < 0:
		return cliflags.Usagef("-lease-ttl %v: want 0 (the default, 15s) or a positive duration", *leaseTTL)
	case *drainTimeout < 0:
		return cliflags.Usagef("-drain-timeout %v: want 0 (cancel at once) or a positive duration", *drainTimeout)
	}
	cacheBytes := int64(*cacheMB) << 20
	if *cacheMB <= 0 {
		cacheBytes = -1 // disabled, not "default"
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "ctsand: "+format+"\n", args...)
	}
	srv := server.New(server.Config{
		Workers:     *workers,
		MaxActive:   *maxActive,
		QueueDepth:  *queueDepth,
		CacheBytes:  cacheBytes,
		DefaultSeed: *seed,
		LeaseTTL:    *leaseTTL,
		Debug:       *debug,
		Logf:        logf,
	})
	if *cacheDir != "" {
		if err := os.MkdirAll(*cacheDir, 0o755); err != nil {
			return err
		}
		if _, err := srv.OpenCacheDir(*cacheDir); err != nil {
			return fmt.Errorf("-cache-dir: %w", err)
		}
	}

	stopDebug, err := cliflags.StartDebug(*debugAddr, logf)
	if err != nil {
		return err
	}
	defer stopDebug()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logf("campaign service listening on http://%s/", ln.Addr())

	hs := srv.HTTPServer()
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		return err
	}

	logf("draining (budget %s): running studies finish, new submissions get 503", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Drain the campaign queue first — subscribers keep their streams
	// until every study is terminal — then close the HTTP side.
	if err := srv.Shutdown(dctx); err != nil {
		return err
	}
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	logf("drained, exiting")
	return nil
}
