// Package cliflags centralizes the CLI conventions the repository's two
// binaries, ctsan and ctsand, share — the campaign root seed, the
// worker-pool size, JSON output and debug-listener flags, and the one
// rule that turns a command's error into an exit status — so that names,
// defaults, help text, and exit codes cannot drift between commands (they
// once did, across eight binaries). A command registers the flags it
// needs on its FlagSet and parses through Parse:
//
//	seed := cliflags.Seed(fs)
//	workers := cliflags.Workers(fs)
//	if err := cliflags.Parse(fs, args); err != nil {
//		return err
//	}
//
// Exit statuses (ExitStatus is the only place they are decided):
//
//	0    success, or -h / -help (the FlagSet printed the usage)
//	1    the command ran and failed
//	2    usage error: flag parse failure, a missing or invalid flag
//	     value, the reserved seed 0, an unknown command (Usagef, Parse)
//	130  interrupted (context.Canceled); prints "<prog>: interrupted"
package cliflags

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"

	"ctsan/internal/obs"
)

// Flag names and help text shared by all commands. Exported so tests can
// pin them and commands can reference the canonical spelling.
const (
	SeedName  = "seed"
	SeedUsage = "campaign root seed (results are bit-identical for a given seed)"

	WorkersName  = "workers"
	WorkersUsage = "worker goroutines; 0 = one per CPU, 1 = serial (results are identical at any count)"

	JSONName  = "json"
	JSONUsage = "emit results as JSON instead of text"

	DebugAddrName  = "debug-addr"
	DebugAddrUsage = "serve /debug/vars and /debug/pprof on this address (e.g. localhost:6060); empty disables"
)

// Seed registers the shared -seed flag (default 1).
func Seed(fs *flag.FlagSet) *uint64 {
	return fs.Uint64(SeedName, 1, SeedUsage)
}

// Workers registers the shared -workers flag. The default 0 resolves to
// one worker per CPU (parallel.Workers); every campaign in the repository
// is bit-identical at any worker count.
func Workers(fs *flag.FlagSet) *int {
	return fs.Int(WorkersName, 0, WorkersUsage)
}

// JSON registers the shared -json flag (default false).
func JSON(fs *flag.FlagSet) *bool {
	return fs.Bool(JSONName, false, JSONUsage)
}

// DebugAddr registers the shared -debug-addr flag (default "", meaning
// no debug server). When set, commands start obs.Serve on the address
// for the duration of the run.
func DebugAddr(fs *flag.FlagSet) *string {
	return fs.String(DebugAddrName, "", DebugAddrUsage)
}

// StartDebug starts the obs debug server when addr is non-empty and
// returns a shutdown func (a no-op when addr is empty). The bound
// address — useful with ":0" — is logged through logf.
func StartDebug(addr string, logf func(format string, args ...any)) (func() error, error) {
	if addr == "" {
		return func() error { return nil }, nil
	}
	bound, shutdown, err := obs.Serve(addr)
	if err != nil {
		return nil, fmt.Errorf("-%s: %w", DebugAddrName, err)
	}
	if logf != nil {
		logf("debug server listening on http://%s/debug/vars", bound)
	}
	return shutdown, nil
}

// CheckSeed rejects the reserved seed 0 as a usage error. Campaign points
// treat a zero Seed as "derive one from the study seed and the point
// index", so a literal 0 cannot be pinned from the command line;
// accepting it would silently run under different derived seeds and
// break the "bit-identical for a given seed" help-text promise.
func CheckSeed(seed uint64) error {
	if seed == 0 {
		return Usagef("-%s 0 is reserved (seeds start at 1)", SeedName)
	}
	return nil
}

// usageError marks an error as the caller's mistake (exit status 2).
// reported is set when the FlagSet already printed the message.
type usageError struct {
	err      error
	reported bool
}

func (e *usageError) Error() string { return e.err.Error() }
func (e *usageError) Unwrap() error { return e.err }

// Usagef builds a usage error: a missing or invalid flag value, an
// unknown command or name the command line had to pick from a fixed set.
func Usagef(format string, args ...any) error {
	return &usageError{err: fmt.Errorf(format, args...)}
}

// Parse is fs.Parse with the failure classified: -h passes through as
// flag.ErrHelp, and anything else is a usage error whose message (and
// the flag list) the FlagSet has already written to its output. A
// negative -workers (the shared flag, on whichever command registers it)
// is a usage error too.
func Parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return &usageError{err: err, reported: true}
	}
	if f := fs.Lookup(WorkersName); err == nil && f != nil {
		if w := f.Value.(flag.Getter).Get().(int); w < 0 {
			return Usagef("-%s %d: want 0 (one per CPU) or a positive count", WorkersName, w)
		}
	}
	return err
}

// ExitStatus reports err on stderr, prefixed with prog, and returns the
// process exit status for it — the rule in the package comment. A
// canceled campaign (Ctrl-C through signal.NotifyContext) exits with the
// conventional SIGINT status so scripts can tell an interrupt from a
// real failure.
func ExitStatus(prog string, err error, stderr io.Writer) int {
	var usage *usageError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, context.Canceled):
		fmt.Fprintf(stderr, "%s: interrupted\n", prog)
		return 130
	case errors.As(err, &usage):
		if !usage.reported {
			fmt.Fprintf(stderr, "%s: %v\n", prog, err)
		}
		return 2
	}
	fmt.Fprintf(stderr, "%s: %v\n", prog, err)
	return 1
}
