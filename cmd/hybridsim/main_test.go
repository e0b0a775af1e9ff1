package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
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

// TestClusterRejectsTelemetryAddr: a cluster run takes no live snapshots,
// so -telemetry-addr with -cells fails up front with a named error instead
// of serving "waiting for first snapshot" for the whole run.
func TestClusterRejectsTelemetryAddr(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "--", "-cells", "2", "-horizon", "600", "-telemetry-addr", "127.0.0.1:0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err == nil {
		t.Fatalf("hybridsim -cells 2 -telemetry-addr exited 0; stdout:\n%s", stdout.String())
	}
	if !bytes.Contains(stderr.Bytes(), []byte("hybridsim: -telemetry-addr")) || stdout.Len() != 0 {
		t.Fatalf("want a named error before any run; stderr:\n%s\nstdout:\n%s", stderr.String(), stdout.String())
	}
}

// TestRejectsNegativeFlags: a negative value of a flag where 0 disables a
// feature or picks a default fails with a named error, most of them the
// facade validators', instead of running as if the flag were 0.
func TestRejectsNegativeFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-loss", "-0.1"}, "simulate: faults: loss probability -0.1 outside [0,1]"},
		{[]string{"-gilbert", "-2"}, "simulate: faults: mean burst length -2 below 1"},
		{[]string{"-retries", "-1"}, "simulate: faults: retry count -1 negative"},
		{[]string{"-shed-high", "-5"}, "simulate: faults: shed high-water mark -5 not positive"},
		{[]string{"-bandwidth", "-3", "-fractions", "0.5,0.3,0.2"}, "simulate: bandwidth: invalid total -3"},
		{[]string{"-cells", "-2"}, "simulate: cluster: cell count -2 < 1"},
		{[]string{"-cells", "2", "-handoff-every", "-1"}, "simulate: cluster: invalid handoff epoch -1"},
		{[]string{"-reps", "-1"}, "simulate: hybridqos: replication count -1 negative"},
		{[]string{"-workers", "-1"}, "-workers -1 negative"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			args := append([]string{"--", "-horizon", "300"}, tc.args...)
			cmd := exec.CommandContext(ctx, os.Args[0], args...)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err == nil {
				t.Fatalf("hybridsim %v exited 0; stdout:\n%s", tc.args, stdout.String())
			}
			if !bytes.Contains(stderr.Bytes(), []byte("hybridsim: "+tc.want)) || stdout.Len() != 0 {
				t.Fatalf("want %q before any run; stderr:\n%s\nstdout:\n%s", tc.want, stderr.String(), stdout.String())
			}
		})
	}
}

// TestHeaderShowsEffectiveReps: -reps 0 runs one replication, and the
// header says so.
func TestHeaderShowsEffectiveReps(t *testing.T) {
	out := hybridsim(t, "-horizon", "300", "-reps", "0")
	if !bytes.Contains(out, []byte(" reps=1\n")) {
		t.Fatalf("header does not show the one replication run:\n%s", out)
	}
}
