package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestTranscriptGolden replays testdata/cli: stdout bytes and exit
// status of the five retired binaries (repro, sanrun, fdqos, testbed,
// scenario), recorded from the last commit that built them. index.txt
// holds one invocation per line — "<id> <status> <binary> <args...>" —
// and <id>.stdout what it printed; `ctsan <binary> <args...>` must
// reproduce both. The files are a fence, not a snapshot: they are not
// regenerated, and a deliberate output change edits them by hand.
func TestTranscriptGolden(t *testing.T) {
	index, err := os.ReadFile(filepath.Join("testdata", "cli", "index.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(index)), "\n") {
		f := strings.Fields(line)
		id, args := f[0], f[2:]
		t.Run(id+"_"+args[0], func(t *testing.T) {
			wantCode, err := strconv.Atoi(f[1])
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "cli", id+".stdout"))
			if err != nil {
				t.Fatal(err)
			}
			code, stdout, stderr := ctsan(t, args...)
			if code != wantCode {
				t.Errorf("ctsan %s: exit %d, want %d\n%s", strings.Join(args, " "), code, wantCode, stderr)
			}
			if stdout != string(want) {
				t.Errorf("ctsan %s: stdout differs from the recorded transcript\n--- got ---\n%s\n--- want ---\n%s",
					strings.Join(args, " "), stdout, want)
			}
		})
	}
}

// TestCommandTableConformance holds every table entry to the one CLI
// contract: -h prints the usage to stderr only and exits 0, an unknown
// flag and the reserved seed 0 are usage errors (2), and the flag list is
// the one testdata/cli/flags recorded from the retired binaries (and, for
// the dispatch commands, from ctsan itself) at the last commit that built
// them — testbed's minus -scenario and -replicas, the duplicate road to
// `scenario run` that was removed with it.
func TestCommandTableConformance(t *testing.T) {
	spec := writeSpec(t)
	for _, c := range commands {
		t.Run(c.name, func(t *testing.T) {
			words := strings.Fields(c.name)
			invoke := func(args ...string) (int, string, string) {
				return ctsan(t, append(words, args...)...)
			}
			// A missing file is a command that takes no flags.
			flags, _ := os.ReadFile(filepath.Join("testdata", "cli", "flags", strings.Join(words, "-")+".txt"))
			code, stdout, stderr := invoke("-h")
			if code != 0 || stdout != "" {
				t.Errorf("-h: exit %d, stdout %q; want 0 and usage on stderr only", code, stdout)
			}
			if want := "Usage of ctsan " + c.name + ":\n" + string(flags); stderr != want {
				t.Errorf("-h: usage differs from the recorded flag list\n--- got ---\n%s\n--- want ---\n%s", stderr, want)
			}
			if code, stdout, stderr := invoke("-bogus"); code != 2 || stdout != "" || !strings.Contains(stderr, "flag provided but not defined") {
				t.Errorf("-bogus: exit %d, stdout %q, stderr %q; want a usage error", code, stdout, stderr)
			}
			if !strings.Contains(string(flags), "  -seed uint\n") {
				return
			}
			args := []string{"-seed", "0"}
			if strings.Contains(string(flags), "  -study string\n") {
				args = append(args, "-study", spec)
			}
			if code, stdout, stderr := invoke(args...); code != 2 || stdout != "" || !strings.Contains(stderr, "-seed 0 is reserved") {
				t.Errorf("-seed 0: exit %d, stdout %q, stderr %q; want a usage error", code, stdout, stderr)
			}
		})
	}
	for _, args := range [][]string{nil, {"bogus"}, {"scenario"}, {"scenario", "bogus"}} {
		code, stdout, stderr := ctsan(t, args...)
		if code != 2 || stdout != "" {
			t.Errorf("ctsan %v: exit %d, stdout %q; want a usage error", args, code, stdout)
		}
		for _, c := range commands {
			if !strings.Contains(stderr, "  "+c.name+" ") || !strings.Contains(stderr, c.synopsis) {
				t.Errorf("ctsan %v: usage does not list %q:\n%s", args, c.name, stderr)
			}
		}
	}
}

// TestInvalidFlagValuesAreUsageErrors is the reject table: values a
// command line must not accept, each a usage error that says what would
// have been accepted. The first two used to run — the deterministic FD,
// and no crash at all — and exit 0, and so did every -scale row, each
// running every campaign at the floor size of 8, and every negative
// -cap, -throttle, -idle-exit and -crash-after (as no ring limit, no
// pause, no idle limit, no crash); -transient -execs 3 crashed p1 before
// the first execution and printed a NaN steady state.
func TestInvalidFlagValuesAreUsageErrors(t *testing.T) {
	spec, dir := writeSpec(t), t.TempDir()
	for _, tc := range []struct {
		args string
		want string // in the message
	}{
		{"sanrun -fd bogus -tmr 20 -tm 2", "det or exp"},
		{"testbed -crash -1", "1..3"},
		{"testbed -n 5 -crash 6 -throughput", "1..5"},
		{"sanrun -crash 4", "1..3"},
		{"fdqos -T 0", "must be > 0"},
		{"fdqos -T 5,abc", `"abc"`},
		{"repro -what bogus", "fig7b"},
		{"repro -fidelity bogus", "quick or paper"},
		{"repro -scale 0", "finite factor > 0"},
		{"repro -scale -1", "finite factor > 0"},
		{"repro -scale NaN", "finite factor > 0"},
		{"repro -scale Inf", "finite factor > 0"},
		{"repro -scale -Inf", "finite factor > 0"},
		{"scenario describe", "split-brain"},
		{"scenario run", "split-brain"},
		{"shard -study " + spec + " -dir . -range 0:5junk", "start:end"},
		{"run -study " + spec + " -dir . -o x -shards 0", "0 shards"},
		{"run -study " + spec + " -dir . -o x -retries -1", "0 or more re-runs"},
		{"run -study " + spec + " -dir . -o x -backoff -1s", "-backoff -1s"},
		{"run -study " + spec + " -dir . -o x -timeout -1s", "-timeout -1s"},
		{"run -study " + spec + " -dir . -o x -procs -1", "-procs -1"},
		{"run -study " + spec + " -dir . -o x -workers -1", "-workers -1"},
		{"shard -study " + spec + " -dir . -range 0:1 -workers -2", "-workers -2"},
		{"worker -server http://127.0.0.1:1 -dir . -workers -1", "-workers -1"},
		{"sanrun -workers -1", "-workers -1"},
		{"testbed -workers -1", "-workers -1"},
		{"fdqos -workers -1", "-workers -1"},
		{"repro -workers -1", "-workers -1"},
		{"scenario run -workers -1 paper-baseline", "-workers -1"},
		{"scenario trace -workers -1 flaky-link", "-workers -1"},
		{"scenario trace -cap -1 flaky-link", "-cap -1"},
		{"worker -server http://127.0.0.1:1 -dir " + dir + " -throttle -1s", "-throttle -1s"},
		{"worker -server http://127.0.0.1:1 -dir " + dir + " -idle-exit -1s", "-idle-exit -1s"},
		{"shard -study " + spec + " -dir " + dir + " -range 0:1 -crash-after -1", "-crash-after -1"},
		{"shard -study " + spec + " -dir " + dir + " -range 0:1 -throttle -1s", "-throttle -1s"},
		{"run -study " + spec + " -dir " + dir + " -o " + dir + "/x -crash-after -1", "-crash-after -1"},
		{"testbed -transient -execs 3", "at least 5"},
	} {
		// A deadline, so that a value wrongly accepted (a worker with no
		// idle limit, say) fails its row instead of running until the test
		// binary times out.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		var out bytes.Buffer
		var errb lockedBuffer
		code := run(ctx, strings.Fields(tc.args), &out, &errb)
		cancel()
		if stdout, stderr := out.String(), errb.String(); code != 2 || stdout != "" || !strings.Contains(stderr, tc.want) {
			t.Errorf("ctsan %s: exit %d, stdout %q, stderr %q; want a usage error mentioning %q",
				tc.args, code, stdout, stderr, tc.want)
		}
	}
}

func TestUnknownArtifactIsRejected(t *testing.T) {
	code, stdout, stderr := ctsan(t, "repro", "-what", "bogus")
	if code != 2 || stdout != "" {
		t.Fatalf("-what bogus: exit %d, stdout %q", code, stdout)
	}
	for _, id := range artifacts {
		if !strings.Contains(stderr, id) {
			t.Errorf("error does not list %q: %s", id, stderr)
		}
	}
	// A known artifact, in any case, still runs.
	code, stdout, stderr = ctsan(t, "repro", "-what", "FIG7B", "-scale", "0.1", "-q")
	if code != 0 || !strings.Contains(stdout, "t_send") {
		t.Fatalf("-what FIG7B: exit %d\n%s%s", code, stdout, stderr)
	}
}
