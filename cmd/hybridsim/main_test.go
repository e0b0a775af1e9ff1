package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"hybridqos"
)

// TestMain runs main instead of the tests when the test binary is invoked
// as `<binary> -- <hybridsim flags>`, so a test can observe main's output
// and exit.
func TestMain(m *testing.M) {
	if i := slices.Index(os.Args, "--"); i >= 0 {
		os.Args = append([]string{os.Args[0]}, os.Args[i+1:]...)
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// hybridsim runs main in a child process and returns its stdout.
func hybridsim(t *testing.T, args ...string) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], append([]string{"--"}, args...)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("hybridsim %v: %v\nstderr:\n%s", args, err, stderr.String())
	}
	return stdout.Bytes()
}

// TestSaveConfigKeepsSpans: -saveconfig writes the span sampling rates along
// with the telemetry cadence, and a run of the saved file reproduces the
// flag-driven run exactly.
func TestSaveConfigKeepsSpans(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cfg.json")
	run := []string{"-horizon", "600", "-reps", "1"}
	first := hybridsim(t, append(run, "-spans", "1,0.5", "-telemetry-every", "50", "-saveconfig", path)...)
	c, err := hybridqos.LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Spans == nil || !slices.Equal(c.Spans.Rates, []float64{1, 0.5}) {
		t.Fatalf("saved config lost the span rates: Spans = %+v", c.Spans)
	}
	if c.Telemetry == nil || c.Telemetry.SnapshotEvery != 50 {
		t.Fatalf("saved config lost the telemetry cadence: Telemetry = %+v", c.Telemetry)
	}
	if again := hybridsim(t, "-config", path); !bytes.Equal(again, first) {
		t.Fatalf("-config run differs from the flag run:\n%s\nvs\n%s", again, first)
	}
}
