// Command ctsan is the repository's one command-line front end: it
// dispatches studies as crash-safe sharded campaigns, reproduces the
// paper's evaluation from its two halves (solve the SAN model, measure
// the implementation), and runs fault-injection scenarios. The campaign
// service daemon, ctsand, is the only other binary.
//
// Dispatch — lease a study grid out as contiguous index ranges, run each
// range as an isolated, checkpointed process, and fold the per-point
// records back into the exact JSONL one uninterrupted process would emit:
//
//	ctsan run    -study spec.json -shards 4 -dir ckpt/ -o results.jsonl
//	ctsan shard  -study spec.json -range 0:12 -dir ckpt/
//	ctsan merge  -study spec.json -dir ckpt/ -o results.jsonl
//	ctsan worker -server http://host:8080 -dir ckpt/
//
// Paper reproduction — each a thin shell over the campaign API or the
// figure functions of internal/experiment:
//
//	ctsan repro   -what fig7b -scale 0.3 -q     # tables and figures of §5
//	ctsan sanrun  -n 5 -tmr 20 -tm 2 -fd exp    # the SAN model, explicit parameters
//	ctsan testbed -n 5 -T 10 -execs 1000        # one campaign on the emulated cluster
//	ctsan fdqos   -n 3 -T 5,30                  # heartbeat FD QoS over a timeout grid
//
// Scenarios — declarative fault and workload timelines
// (internal/scenario); flags precede the scenario names:
//
//	ctsan scenario list
//	ctsan scenario describe split-brain
//	ctsan scenario run -replicas 4 -json split-brain gc-storm
//	ctsan scenario run -spec my-scenario.json -execs 100
//	ctsan scenario trace -explain flaky-link
//
// Every command is one entry of the commands table — name, synopsis,
// func(ctx, args, stdout, stderr) error — behind the injectable run seam;
// the usage text is generated from the table and the exit status from the
// returned error by cliflags.ExitStatus (0 ok or -h, 1 failed, 2 usage
// error, 130 interrupted). No command exits on its own.
//
// `run` is the supervisor: an in-process lease ledger (internal/shard)
// over the grid, preloaded with every record -dir already holds, and
// -procs slots that each take a lease, re-execute this binary for its
// range (`ctsan shard`), and complete the lease with what the
// subprocess checkpointed. A crashed, hung, or panicked shard leaves
// holes; the ledger leases them again (after an exponential backoff,
// up to -retries times) and folds results in grid-index order into -o.
// `shard` executes one range through campaign.RunRecords, appending each
// completed point to a checkpoint file in -dir and skipping points that
// file already holds — so a shard killed mid-run loses only the points
// in flight ("appending" is a write per point and an fsync per 25 ms
// slice; see checkpointRange for what a power cut can cost). `merge` is
// the supervisor's preload alone: the same ledger folds every checkpoint
// record in -dir, in grid-index order, verifying each record's CRC and
// point-spec hash, and merge fails unless that settles the whole grid.
//
// `worker` is the pull side of fleet dispatch: the same ledger, served
// by a campaign service (ctsand, for studies submitted under
// ?mode=fleet). It leases ranges over HTTP, runs each as a sub-study of
// the frozen grid, and uploads the range's records for the coordinator's
// ledger to verify and fold. It writes no file: a worker that dies
// mid-lease costs that lease, which the coordinator grants again once
// it expires.
//
// The dispatch commands freeze the study deterministically from the same
// (spec, seed, replicas) inputs, so the grid — per-point seeds
// included — is identical in every participating process, and the
// output is bit-identical to `run` with -shards 1, at any shard count
// or worker fleet size, across any number of crashes and resumes.
//
// `scenario run` executes its scenarios as one campaign study: one
// Scenario point per name, every point seeded with the same -seed
// (common random numbers, so scenarios are compared under identical
// draws). Like every campaign here its results are bit-identical at any
// -workers count for a given -seed and stream out in argument order.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ctsan/campaign"
	"ctsan/internal/checkpoint"
	"ctsan/internal/cliflags"
	"ctsan/internal/parallel"
	"ctsan/internal/shard"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// command is one entry of the CLI: results go to stdout, diagnostics to
// stderr, and the returned error decides the exit status.
type command struct {
	group    string // usage heading
	name     string // the words that select it, e.g. "scenario run"
	synopsis string
	run      func(ctx context.Context, args []string, stdout, stderr io.Writer) error
}

// commands is the whole CLI, in usage order.
var commands = []command{
	{"dispatch", "run", "lease the grid to shard subprocesses, supervise them, and merge", cmdRun},
	{"dispatch", "shard", "execute one shard range, checkpointing each completed point", cmdShard},
	{"dispatch", "merge", "fold checkpoint records into the final results JSONL", cmdMerge},
	{"dispatch", "worker", "pull fleet leases from a campaign service and execute them", cmdWorker},
	{"paper reproduction", "repro", "regenerate the tables and figures of the paper's evaluation (§5)", cmdRepro},
	{"paper reproduction", "sanrun", "solve the SAN model with explicit parameters", cmdSanrun},
	{"paper reproduction", "testbed", "run one measurement campaign on the emulated cluster", cmdTestbed},
	{"paper reproduction", "fdqos", "measure heartbeat failure-detector QoS over a timeout grid", cmdFdqos},
	{"scenarios", "scenario list", "show the registered scenarios", cmdScenarioList},
	{"scenarios", "scenario describe", "show docs and timeline of the named scenarios", cmdScenarioDescribe},
	{"scenarios", "scenario run", "run named scenarios, or a -spec JSON one, as a campaign", cmdScenarioRun},
	{"scenarios", "scenario trace", "run one scenario with execution tracing", cmdScenarioTrace},
}

// usage renders the command table.
func usage() string {
	var b strings.Builder
	b.WriteString("usage: ctsan <command> [flags] [args]   (ctsan <command> -h lists the flags)\n")
	group := ""
	for _, c := range commands {
		if c.group != group {
			group = c.group
			fmt.Fprintf(&b, "\n%s:\n", group)
		}
		fmt.Fprintf(&b, "  %-18s %s\n", c.name, c.synopsis)
	}
	return b.String()
}

// lookup finds the command the leading words of args select and returns
// it with the remaining arguments.
func lookup(args []string) (*command, []string) {
	for i, c := range commands {
		words := strings.Fields(c.name)
		if len(args) >= len(words) && slices.Equal(args[:len(words)], words) {
			return &commands[i], args[len(words):]
		}
	}
	return nil, nil
}

// run dispatches a ctsan invocation; it is the whole binary behind an
// injectable seam (args, streams, exit code) so tests can drive every
// command — and real subprocess supervision, through the test binary
// itself — without a process boundary.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	cmd, rest := lookup(args)
	if cmd == nil {
		if len(args) == 0 {
			return cliflags.ExitStatus("ctsan", cliflags.Usagef("missing command\n%s", usage()), stderr)
		}
		word := args[0] // or two, under a group word such as "scenario"
		if len(args) > 1 && slices.ContainsFunc(commands, func(c command) bool { return strings.HasPrefix(c.name, word+" ") }) {
			word += " " + args[1]
		}
		return cliflags.ExitStatus("ctsan", cliflags.Usagef("unknown command %q\n%s", word, usage()), stderr)
	}
	return cliflags.ExitStatus("ctsan "+cmd.name, cmd.run(ctx, rest, stdout, stderr), stderr)
}

// flagSet returns the FlagSet of the named command, reporting to stderr.
func flagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("ctsan "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// studyFlags are the inputs every command freezes the grid from; they
// must match across supervisor, shards, and merge for the point hashes
// to line up.
type studyFlags struct {
	study    *string
	seed     *uint64
	replicas *int
}

func registerStudyFlags(fs *flag.FlagSet) studyFlags {
	return studyFlags{
		study:    fs.String("study", "", "study spec JSON file (required)"),
		seed:     cliflags.Seed(fs),
		replicas: fs.Int("replicas", 0, "default replica count for points that do not set one"),
	}
}

// frozen loads the spec and freezes it under the shared flags: the
// deterministic step that makes every process see the identical grid.
func (sf studyFlags) frozen() (*campaign.Study, error) {
	if *sf.study == "" {
		return nil, cliflags.Usagef("-study is required")
	}
	if err := cliflags.CheckSeed(*sf.seed); err != nil {
		return nil, err
	}
	spec, err := os.ReadFile(*sf.study)
	if err != nil {
		return nil, err
	}
	study, err := campaign.DecodeStudy(spec)
	if err != nil {
		return nil, err
	}
	return campaign.Frozen(study,
		campaign.WithSeed(*sf.seed), campaign.WithReplicas(*sf.replicas))
}

// storePath names the checkpoint file of one shard range; storedRecords
// reads them all back.
func storePath(dir string, r shard.Range) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%06d-%06d.jsonl", r.Start, r.End))
}

func cmdShard(ctx context.Context, args []string, _, stderr io.Writer) error {
	fs := flagSet("shard", stderr)
	sf := registerStudyFlags(fs)
	rangeArg := fs.String("range", "", "grid index range start:end (required)")
	dir := fs.String("dir", "", "checkpoint directory (required)")
	workers := cliflags.Workers(fs)
	throttle := fs.Duration("throttle", 0, "pause after each checkpointed point (rate limiting and crash testing)")
	crashAfter := fs.Int("crash-after", 0, "fault injection: panic after N newly checkpointed points")
	if err := cliflags.Parse(fs, args); err != nil {
		return err
	}
	frozen, err := sf.frozen()
	if err != nil {
		return err
	}
	switch {
	case *rangeArg == "" || *dir == "":
		return cliflags.Usagef("-range and -dir are required")
	case *throttle < 0:
		return cliflags.Usagef("-throttle %v: want 0 (none) or a positive duration", *throttle)
	case *crashAfter < 0:
		return cliflags.Usagef("-crash-after %d: want 0 (no injected crash) or a positive count", *crashAfter)
	}
	r, err := shard.ParseRange(*rangeArg)
	if err != nil {
		return cliflags.Usagef("%v", err)
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	var held [][]byte
	store, err := checkpoint.OpenEach(storePath(*dir, r), func(_ int64, line []byte) { held = append(held, line) })
	if err != nil {
		return err
	}
	executed := 0
	onPoint := func(index int, line []byte) error {
		executed++
		fmt.Fprintf(stderr, "ctsan shard %s: point %d checkpointed (%d this attempt)\n", r, index, executed)
		if *throttle > 0 {
			time.Sleep(*throttle)
		}
		if *crashAfter > 0 && executed >= *crashAfter {
			panic(fmt.Sprintf("ctsan shard %s: injected crash after %d points", r, executed))
		}
		return nil
	}
	return checkpointRange(ctx, frozen, r, held, store, onPoint, campaign.WithWorkers(*workers))
}

// now is the clock checkpoint.SyncSlice is measured on; tests replace it.
var now = time.Now

// checkpointRange is a shard's execution. held is what the store's one
// read of its file found (checkpoint.OpenEach); the points of r it holds
// no valid record for run, so a restarted shard re-executes only what is
// missing. Each record is written to store the moment its point
// completes (campaign.RunRecords), so the store lists records in
// completion order (merge and resume fold by index).
//
// Durability is per time slice, not per point. A written record is in
// the file for a merge or a resume to read, and outlives this process
// however it dies (panic, SIGKILL, a supervisor's timeout); the store is
// fsynced when checkpoint.SyncSlice has passed since the previous fsync,
// and once more before checkpointRange returns, on every exit path. So a
// dead executor costs bounded re-execution, never a wrong result:
// process death loses only the points in flight; power loss loses at
// most the records of one slice, which a resume finds missing (or torn,
// and drops) and re-executes.
//
// onPoint, when non-nil, observes each record line between its write
// and its slice's fsync — "checkpointed": readable by a resume or a
// merge, not necessarily fsynced yet. Calls are serialized, in the order
// the records are written. It is the fault-injection hook (-crash-after,
// -throttle) and the progress log.
func checkpointRange(ctx context.Context, frozen *campaign.Study, r shard.Range, held [][]byte, store *checkpoint.Store, onPoint func(index int, line []byte) error, opts ...campaign.Option) error {
	hashes, err := campaign.StudyPointHashes(frozen)
	if err != nil {
		return err
	}
	missing := missingPoints(hashes, r, held)
	if len(missing) == 0 {
		return nil
	}
	sliceStart := now()
	err = campaign.RunRecords(ctx, frozen, hashes, missing, func(index int, line []byte) error {
		if err := store.Write(line); err != nil {
			return err
		}
		if onPoint != nil {
			if err := onPoint(index, line); err != nil {
				return err
			}
		}
		if t := now(); t.Sub(sliceStart) >= checkpoint.SyncSlice {
			sliceStart = t
			return store.Sync()
		}
		return nil
	}, opts...)
	// Whatever the last slice wrote is fsynced on every exit path,
	// cancellation and failed points included.
	if serr := store.Sync(); serr != nil && err == nil {
		err = serr
	}
	return err
}

// missingPoints lists the indices of r that have no valid record among
// lines, given the study's per-index point hashes: a corrupt, stale or
// foreign record does not count, so its point runs again.
func missingPoints(hashes []string, r shard.Range, lines [][]byte) []int {
	held := map[int]bool{}
	for _, line := range lines {
		if rec, err := campaign.VerifyShardRecord(hashes, line); err == nil {
			held[rec.Index] = true
		}
	}
	return slices.DeleteFunc(gridIndices(r, len(hashes)), func(i int) bool { return held[i] })
}

// gridIndices lists the indices of r for campaign.RunRecords, which
// refuses any outside a grid of n points. It lists at most n+1: a longer
// range holds an index outside the grid among them, so a bogus range is
// refused without being sized.
func gridIndices(r shard.Range, n int) []int {
	var indices []int
	for i := r.Start; i < r.End && len(indices) <= n; i++ {
		indices = append(indices, i)
	}
	return indices
}

func cmdRun(ctx context.Context, args []string, _, stderr io.Writer) error {
	fs := flagSet("run", stderr)
	sf := registerStudyFlags(fs)
	shards := fs.Int("shards", 1, "number of shard subprocesses to plan")
	dir := fs.String("dir", "", "checkpoint directory (required)")
	out := fs.String("o", "", "merged results JSONL file (required)")
	procs := fs.Int("procs", 0, "shards running concurrently; 0 = one per CPU")
	workers := cliflags.Workers(fs)
	timeout := fs.Duration("timeout", 0, "per-attempt shard timeout; 0 = none")
	retries := fs.Int("retries", 2, "re-runs of a failed or incomplete shard")
	backoff := fs.Duration("backoff", 250*time.Millisecond, "first retry delay, doubling per retry")
	crashAfter := fs.Int("crash-after", 0, "fault injection: shards panic after N points on their first attempt")
	debugAddr := cliflags.DebugAddr(fs)
	if err := cliflags.Parse(fs, args); err != nil {
		return err
	}
	frozen, err := sf.frozen()
	if err != nil {
		return err
	}
	if *dir == "" || *out == "" {
		return cliflags.Usagef("-dir and -o are required")
	}
	total := len(frozen.Points)
	switch {
	case *shards <= 0:
		return cliflags.Usagef("cannot split %d points into %d shards", total, *shards)
	case *procs < 0:
		return cliflags.Usagef("-procs %d: want 0 (one per CPU) or a positive count", *procs)
	case *retries < 0:
		return cliflags.Usagef("-retries %d: want 0 or more re-runs", *retries)
	case *timeout < 0:
		return cliflags.Usagef("-timeout %v: want 0 (none) or a positive duration", *timeout)
	case *backoff < 0:
		return cliflags.Usagef("-backoff %v: want 0 or a positive duration", *backoff)
	case *crashAfter < 0:
		return cliflags.Usagef("-crash-after %d: want 0 (no injected crash) or a positive count", *crashAfter)
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(stderr, "ctsan run: "+format+"\n", args...)
	}
	stopDebug, err := cliflags.StartDebug(*debugAddr, logf)
	if err != nil {
		return err
	}
	defer stopDebug()
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var results []byte
	ledger, pre, err := preload(frozen, *dir, leaseSizes(total, *shards), &results, stderr, logf)
	if err != nil {
		return err
	}
	if len(pre.Accepted) > 0 {
		logf("%d of %d points already checkpointed, skipping them", len(pre.Accepted), total)
	}

	// attempt runs one lease as a `ctsan shard` subprocess and completes
	// it with whatever that left in its checkpoint. The checkpoint, not
	// the exit status, decides: a shard that died after persisting its
	// last point is done, and one that exited cleanly with holes is not.
	attempt := func(l *shard.Lease) error {
		if l.Attempt > 1 {
			delay := *backoff << (l.Attempt - 2)
			logf("shard %s: retrying in %v", l.Range, delay)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(delay):
			}
		}
		logf("shard %s: attempt %d/%d starting (%d points)", l.Range, l.Attempt, *retries+1, l.Len())
		sub := []string{"shard",
			"-study", *sf.study,
			"-seed", strconv.FormatUint(*sf.seed, 10),
			"-replicas", strconv.Itoa(*sf.replicas),
			"-range", l.Range.String(),
			"-dir", *dir,
			"-workers", strconv.Itoa(*workers),
		}
		if *crashAfter > 0 && l.Attempt == 1 {
			sub = append(sub, "-crash-after", strconv.Itoa(*crashAfter))
		}
		attemptCtx, cancel := ctx, context.CancelFunc(func() {})
		if *timeout > 0 {
			attemptCtx, cancel = context.WithTimeout(ctx, *timeout)
		}
		start := time.Now()
		execErr := runShardProcess(attemptCtx, self, sub, stderr)
		cancel()
		records, _, err := checkpoint.Load(storePath(*dir, l.Range))
		if err != nil {
			return fmt.Errorf("shard %s: checkpoint: %w", l.Range, err)
		}
		c := ledger.Complete(time.Now(), l.ID, records)
		if c.Holes == 0 {
			logf("shard %s: complete after attempt %d (%.1fs)", l.Range, l.Attempt, time.Since(start).Seconds())
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if execErr == nil {
			execErr = fmt.Errorf("exec reported success but checkpoint is incomplete")
		}
		if l.Attempt > *retries {
			return fmt.Errorf("shard %s: failed after %d attempts: %w", l.Range, l.Attempt, execErr)
		}
		logf("shard %s: attempt %d failed (%v), %d points pending again", l.Range, l.Attempt, execErr, c.Holes)
		return nil
	}

	// Each slot leases, attempts and completes until the ledger has
	// nothing left to grant; holes an attempt leaves are pending again, so
	// the slot that left them (at least) finds them on its next grant.
	// Once a shard exhausts its attempts in-flight ones finish, no new
	// one starts, and the lowest-index failure is reported. Completed
	// points keep their checkpoints, so re-running resumes.
	var (
		mu       sync.Mutex
		failed   error
		failedAt int
		wg       sync.WaitGroup
	)
	for slot := 0; slot < min(parallel.Workers(*procs), *shards); slot++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				stop := failed != nil
				mu.Unlock()
				if stop {
					return
				}
				l, _, _ := ledger.Grant(time.Now(), fmt.Sprintf("slot-%d", slot))
				if l == nil {
					return
				}
				if err := attempt(l); err != nil {
					mu.Lock()
					if failed == nil || l.Start < failedAt {
						failed, failedAt = err, l.Start
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	if failed != nil {
		return failed
	}
	select {
	case <-ledger.Done():
	default:
		return fmt.Errorf("dispatch ended with %d of %d points missing", ledger.Stats().Pending, total)
	}
	if err := checkpoint.WriteFile(*out, results, 0o644); err != nil {
		return err
	}
	logf("merged %d points into %s", total, *out)
	return nil
}

// leaseSizes is `ctsan run`'s lease-size policy: one lease per shard on
// a fresh grid. The first `shards` grants are sized total/shards, the
// first total%shards of them taking one extra point, so they cover the
// grid exactly; later grants (the holes a failed attempt left) are
// bounded by the same size. The pending and worker counts the ledger
// passes play no part.
func leaseSizes(total, shards int) func(int, int) int {
	var grants atomic.Int64
	return func(int, int) int {
		if int(grants.Add(1)) <= total%shards {
			return total/shards + 1
		}
		return max(total/shards, 1)
	}
}

// slotLeaseTTL is the lease lifetime `ctsan run` asks of its ledger. A
// slot lives in the supervisor's own process and always completes its
// lease — a dead subprocess is a completion with holes — so leases must
// never expire underneath one; -timeout bounds an attempt instead.
const slotLeaseTTL = 100 * 365 * 24 * time.Hour

// preload opens the one fold of `run` and `merge`: a lease ledger over
// the frozen grid whose in-order emission appends each result line to
// *results — the very bytes an in-process campaign.JSONLWriter would
// write — preloaded with every record checkpointed under dir. Records
// the ledger had to skip are reported through logf. size is the lease
// size policy (nil when no lease will be granted).
func preload(frozen *campaign.Study, dir string, size func(int, int) int, results *[]byte, stderr io.Writer, logf func(string, ...any)) (*shard.Ledger, shard.Completion, error) {
	hashes, err := campaign.StudyPointHashes(frozen)
	if err != nil {
		return nil, shard.Completion{}, err
	}
	ledger := shard.NewLedger(hashes, slotLeaseTTL, size, func(_ int, line []byte) {
		*results = append(*results, line...)
	})
	stored, err := storedRecords(dir, stderr)
	if err != nil {
		return nil, shard.Completion{}, err
	}
	pre := ledger.Preload(stored)
	if skipped := pre.Rejected + pre.Duplicate; skipped > 0 {
		logf("skipped %d stale, duplicate, or corrupt records", skipped)
	}
	return ledger, pre, nil
}

// storedRecords loads every record line checkpointed under dir. Records
// carry full-grid indices and point hashes, so neither resume nor merge
// depends on which range a file was written for.
func storedRecords(dir string, stderr io.Writer) ([][]byte, error) {
	files, err := filepath.Glob(filepath.Join(dir, "shard-*.jsonl"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	var lines [][]byte
	for _, f := range files {
		records, dropped, err := checkpoint.Load(f)
		if err != nil {
			return nil, err
		}
		if dropped > 0 {
			fmt.Fprintf(stderr, "ctsan: %s: dropped %d damaged trailing bytes\n", f, dropped)
		}
		lines = append(lines, records...)
	}
	return lines, nil
}

// runShardProcess re-executes this binary for one shard attempt. The
// context kills the subprocess (per-attempt timeout, ^C); CTSAN_EXEC=1
// lets a test binary recognize the re-exec and route to run() instead of
// the test runner.
func runShardProcess(ctx context.Context, self string, args []string, stderr io.Writer) error {
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Env = append(os.Environ(), "CTSAN_EXEC=1")
	cmd.Stdout = stderr // shard stdout is progress chatter, not results
	cmd.Stderr = stderr
	return cmd.Run()
}

func cmdMerge(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flagSet("merge", stderr)
	sf := registerStudyFlags(fs)
	dir := fs.String("dir", "", "checkpoint directory (required)")
	out := fs.String("o", "", "results JSONL file (default stdout)")
	if err := cliflags.Parse(fs, args); err != nil {
		return err
	}
	frozen, err := sf.frozen()
	if err != nil {
		return err
	}
	if *dir == "" {
		return cliflags.Usagef("-dir is required")
	}
	merged, err := merge(frozen, *dir, stderr)
	if err != nil {
		return err
	}
	if *out == "" {
		_, err := stdout.Write(merged)
		return err
	}
	// Atomic replace: a crash during merge never leaves a half-written
	// results file.
	if err := checkpoint.WriteFile(*out, merged, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "ctsan merge: merged %d points into %s\n", len(frozen.Points), *out)
	return nil
}

// merge folds every checkpoint record under dir and returns, in
// grid-index order, the exact Result JSON bytes each point's shard
// persisted — the same bytes an in-process campaign.JSONLWriter emits,
// making sharded and unsharded runs byte-identical. It fails unless
// every point has a valid record.
func merge(frozen *campaign.Study, dir string, stderr io.Writer) ([]byte, error) {
	logf := func(format string, args ...any) {
		fmt.Fprintf(stderr, "ctsan merge: "+format+"\n", args...)
	}
	var merged []byte
	ledger, pre, err := preload(frozen, dir, nil, &merged, stderr, logf)
	if err != nil {
		return nil, err
	}
	if !pre.Done {
		return nil, fmt.Errorf("campaign: merge incomplete: %d of %d points missing (first missing index %d)",
			ledger.Stats().Pending, len(frozen.Points), pre.Emitted)
	}
	return merged, nil
}
