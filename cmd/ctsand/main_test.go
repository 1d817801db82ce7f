package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"ctsan/internal/cliflags"
)

// TestInvalidFlagValuesAreUsageErrors is ctsand's reject table: each
// value is a usage error (exit status 2) that says what would have been
// accepted. Every row used to start the daemon — most of the values read
// as defaults, a negative -drain-timeout as "cancel every running study
// at once", a -cache-dir beside -cache-mb 0 as nothing at all — so a row
// that does not return promptly fails.
func TestInvalidFlagValuesAreUsageErrors(t *testing.T) {
	cacheDir := t.TempDir()
	for _, tc := range []struct {
		args string
		want string // in the message
	}{
		{"-max-active -1", "-max-active -1"},
		{"-queue -3", "-queue -3"},
		{"-cache-mb -5", "-cache-mb -5"},
		{"-cache-mb 0 -cache-dir " + cacheDir, "-cache-dir " + cacheDir},
		{"-lease-ttl -1s", "-lease-ttl -1s"},
		{"-drain-timeout -1s", "-drain-timeout -1s"},
	} {
		done := make(chan error, 1)
		go func() { done <- run(append([]string{"-addr", "127.0.0.1:0"}, strings.Fields(tc.args)...)) }()
		select {
		case err := <-done:
			var stderr bytes.Buffer
			if code := cliflags.ExitStatus("ctsand", err, &stderr); code != 2 || !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("ctsand %s: exit %d, stderr %q; want a usage error mentioning %q", tc.args, code, stderr.String(), tc.want)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("ctsand %s: still running after 5s; want a usage error mentioning %q", tc.args, tc.want)
		}
	}
}
