package cliflags

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"
	"testing"
)

// TestSharedDefinitions pins the shared names, defaults, and usage
// strings: every command registers these helpers, so a change here is
// a deliberate, repository-wide CLI change.
func TestSharedDefinitions(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	seed := Seed(fs)
	workers := Workers(fs)
	asJSON := JSON(fs)

	if *seed != 1 {
		t.Errorf("seed default = %d, want 1", *seed)
	}
	if *workers != 0 {
		t.Errorf("workers default = %d, want 0 (one per CPU)", *workers)
	}
	if *asJSON {
		t.Error("json must default to false")
	}
	for name, usage := range map[string]string{
		SeedName:    SeedUsage,
		WorkersName: WorkersUsage,
		JSONName:    JSONUsage,
	} {
		f := fs.Lookup(name)
		if f == nil {
			t.Fatalf("flag -%s not registered", name)
		}
		if f.Usage != usage {
			t.Errorf("flag -%s usage drifted: %q", name, f.Usage)
		}
	}

	if err := fs.Parse([]string{"-seed", "7", "-workers", "3", "-json"}); err != nil {
		t.Fatal(err)
	}
	if *seed != 7 || *workers != 3 || !*asJSON {
		t.Errorf("parse: got seed=%d workers=%d json=%v", *seed, *workers, *asJSON)
	}
}

// TestCheckSeed pins the reserved-zero rule: campaign points treat Seed 0
// as "derive", so a CLI must not pretend to pin it.
func TestCheckSeed(t *testing.T) {
	if err := CheckSeed(0); err == nil {
		t.Error("seed 0 must be rejected")
	}
	if err := CheckSeed(1); err != nil {
		t.Errorf("seed 1 rejected: %v", err)
	}
}

// TestExitStatus pins the one error→status rule of ctsan and ctsand, and
// what each case prints.
func TestExitStatus(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	parseErr := Parse(fs, []string{"-bogus"})
	for _, tc := range []struct {
		name   string
		err    error
		status int
		stderr string
	}{
		{"success", nil, 0, ""},
		{"help", Parse(fs, []string{"-h"}), 0, ""},
		{"wrapped help", fmt.Errorf("cmd: %w", flag.ErrHelp), 0, ""},
		{"failure", errors.New("disk on fire"), 1, "prog: disk on fire\n"},
		{"deadline is a failure", context.DeadlineExceeded, 1, "prog: context deadline exceeded\n"},
		{"usage", Usagef("-fd %q: want det or exp", "x"), 2, "prog: -fd \"x\": want det or exp\n"},
		{"wrapped usage", fmt.Errorf("point 3: %w", Usagef("bad")), 2, "prog: point 3: bad\n"},
		{"reserved seed", CheckSeed(0), 2, "prog: -seed 0 is reserved (seeds start at 1)\n"},
		{"flag parse, already reported by the FlagSet", parseErr, 2, ""},
		{"interrupted", context.Canceled, 130, "prog: interrupted\n"},
		{"wrapped interrupt", fmt.Errorf("campaign: point 2: %w", context.Canceled), 130, "prog: interrupted\n"},
	} {
		var stderr strings.Builder
		if got := ExitStatus("prog", tc.err, &stderr); got != tc.status || stderr.String() != tc.stderr {
			t.Errorf("%s: status %d, stderr %q; want %d, %q", tc.name, got, stderr.String(), tc.status, tc.stderr)
		}
	}
	if parseErr == nil || !strings.Contains(parseErr.Error(), "-bogus") {
		t.Errorf("Parse(-bogus) = %v, want the flag package's error", parseErr)
	}
}

// TestParseRejectsNegativeWorkers: Parse holds the shared -workers flag to
// its help text on every command that registers it — 0 or a positive
// count — and leaves FlagSets without it alone.
func TestParseRejectsNegativeWorkers(t *testing.T) {
	for _, tc := range []struct {
		args []string
		ok   bool
	}{
		{[]string{"-workers", "-1"}, false},
		{[]string{"-workers", "0"}, true},
		{[]string{"-workers", "3"}, true},
		{nil, true},
	} {
		fs := flag.NewFlagSet("x", flag.ContinueOnError)
		Workers(fs)
		err := Parse(fs, tc.args)
		if tc.ok != (err == nil) || (err != nil && ExitStatus("x", err, io.Discard) != 2) {
			t.Errorf("Parse(%q) = %v, want ok=%v or a usage error", tc.args, err, tc.ok)
		}
	}
	if err := Parse(flag.NewFlagSet("y", flag.ContinueOnError), nil); err != nil {
		t.Errorf("Parse without -workers: %v", err)
	}
}
