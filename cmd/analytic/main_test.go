package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the golden output file")

// TestMain runs main instead of the tests when the test binary is invoked
// as `<binary> -- <analytic flags>`, so a test can observe main's exit.
func TestMain(m *testing.M) {
	if i := slices.Index(os.Args, "--"); i >= 0 {
		os.Args = append([]string{os.Args[0]}, os.Args[i+1:]...)
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsNonPositiveStep pins that a step below 1 is refused up front:
// the cutoff sweep would otherwise never advance.
func TestRejectsNonPositiveStep(t *testing.T) {
	for _, step := range []string{"0", "-3"} {
		t.Run("step="+step, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, os.Args[0], "--", "-step", step)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			if ctx.Err() != nil {
				t.Fatalf("-step %s still running after 10s", step)
			}
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("-step %s: want exit status 1, got %v", step, err)
			}
			want := "analytic: -step must be at least 1, got " + step
			if !strings.Contains(stderr.String(), want) {
				t.Fatalf("-step %s: stderr %q lacks %q", step, stderr.String(), want)
			}
		})
	}
}

// TestDefaultGolden pins the default run's full output: the §4 chains,
// Cobham's waits and the Eq. 19 sweep in all three variants.
func TestDefaultGolden(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, os.Args[0], "--").Output()
	if err != nil {
		t.Fatalf("default run: %v", err)
	}
	golden := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -update)", err)
	}
	if !bytes.Equal(out, want) {
		t.Errorf("output drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", out, want)
	}
}
