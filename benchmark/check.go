package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ctsan/campaign"
)

// checkOutput verifies one result stream: one line per point, line i
// decoding to a result with index i whose latency.n + aborted equals the
// executions the spec requested, and — when ref is given — every line
// byte-identical to the reference stream's. It returns how many points
// failed and why (one reason per kind of failure, not per point).
func checkOutput(out, ref []byte, execs []int) (failed int, problems []string) {
	lines := splitLines(out)
	var refLines [][]byte
	if ref != nil {
		refLines = splitLines(ref)
	}
	seen := map[string]bool{}
	bad := func(reason string) {
		failed++
		if !seen[reason] {
			seen[reason] = true
			problems = append(problems, reason)
		}
	}
	for i, want := range execs {
		if i >= len(lines) {
			bad(fmt.Sprintf("result stream has %d lines for %d points", len(lines), len(execs)))
			continue
		}
		var res campaign.Result
		switch err := json.Unmarshal(lines[i], &res); {
		case err != nil:
			bad(fmt.Sprintf("a result line does not decode: %v", err))
		case res.Index != i:
			bad(fmt.Sprintf("line %d carries index %d", i, res.Index))
		case res.Latency.N+res.Aborted != want:
			bad(fmt.Sprintf("line %d accounts for %d executions, spec requested %d", i, res.Latency.N+res.Aborted, want))
		case ref != nil && (i >= len(refLines) || !bytes.Equal(lines[i], refLines[i])):
			bad("a result line differs from the reference bytes")
		}
	}
	for range lines[min(len(lines), len(execs)):] {
		bad(fmt.Sprintf("result stream has %d lines for %d points", len(lines), len(execs)))
	}
	return failed, problems
}

// splitLines splits newline-terminated content; an unterminated tail is
// kept as a line so it fails decoding rather than vanishing.
func splitLines(data []byte) [][]byte {
	if len(data) == 0 {
		return nil
	}
	return bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
}

const (
	goldenSeed     = 1
	goldenMatch    = "match"
	goldenMismatch = "MISMATCH"
)

func goldenPath(workload string) string {
	return filepath.Join("benchmark", "golden", workload+".sha256")
}

func hashOf(out []byte) string { return fmt.Sprintf("%x", sha256.Sum256(out)) }

// checkGolden compares a workload's output with the committed hash — or,
// with update, records it as the new one. The hashes pin the
// simulated-time statistics at the default seed and the committed sizes;
// anywhere else the check is skipped, and says so.
func (e *env) checkGolden(w workload, out []byte, update bool) string {
	if e.seed != goldenSeed {
		return fmt.Sprintf("skipped (goldens are for -seed %d)", goldenSeed)
	}
	if e.scale != 1 {
		return "skipped (goldens are for the committed sizes)"
	}
	if update {
		if err := os.MkdirAll(filepath.Dir(goldenPath(w.name)), 0o755); err != nil {
			return goldenMismatch
		}
		if err := os.WriteFile(goldenPath(w.name), []byte(hashOf(out)+"\n"), 0o644); err != nil {
			return goldenMismatch
		}
		return "rewritten"
	}
	want, err := os.ReadFile(goldenPath(w.name))
	if err != nil {
		return goldenMismatch
	}
	if strings.TrimSpace(string(want)) != hashOf(out) {
		return goldenMismatch
	}
	return goldenMatch
}
