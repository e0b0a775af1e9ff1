package hybridqos

import (
	"os"
	"regexp"
	"testing"
)

// programRef matches a program a document tells the reader to run or read:
// the package path of `go run ./<path>`, or a cmd/<name> or examples/<name>
// directory.
var programRef = regexp.MustCompile(`go run \./([\w/-]*\w)|\b((?:cmd|examples)/[\w-]+)`)

// TestDocsNameExistingPrograms fails when README.md, DESIGN.md or
// EXPERIMENTS.md names a program directory that does not exist. ROADMAP.md
// and CHANGES.md are history and may name removed programs.
func TestDocsNameExistingPrograms(t *testing.T) {
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range programRef.FindAllSubmatch(text, -1) {
			dir := string(m[1]) + string(m[2])
			if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
				t.Errorf("%s names %s, which is not a directory", doc, dir)
			}
		}
	}
}
