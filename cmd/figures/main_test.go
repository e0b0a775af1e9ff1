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
)

var update = flag.Bool("update", false, "rewrite the golden output file")

// TestMain runs main instead of the tests when the test binary is invoked
// as `<binary> -- <figures flags>`, so a test can observe main's output
// and exit status.
func TestMain(m *testing.M) {
	if i := slices.Index(os.Args, "--"); i >= 0 {
		os.Args = append([]string{os.Args[0]}, os.Args[i+1:]...)
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestReducedGolden pins the paper's reproduction at a short horizon: the
// full console output of every figure (tables and the 42 claims, each of
// which must pass or main exits 1) at -horizon 3000 -reps 1, the same at
// one sweep worker as at the default count.
func TestReducedGolden(t *testing.T) {
	golden := filepath.Join("testdata", "golden.txt")
	for _, extra := range [][]string{nil, {"-workers", "1"}} {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		args := append([]string{"--", "-horizon", "3000", "-reps", "1"}, extra...)
		out, err := exec.CommandContext(ctx, os.Args[0], args...).Output()
		cancel()
		if err != nil {
			t.Fatalf("figures %v: %v", args[1:], err)
		}
		if *update && extra == nil {
			if err := os.WriteFile(golden, out, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%v (regenerate with go test -update)", err)
		}
		if !bytes.Equal(out, want) {
			t.Errorf("figures %v drifted from %s:\n--- got ---\n%s", args[1:], golden, out)
		}
	}
}
