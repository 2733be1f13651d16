package pathhist

import (
	"os/exec"
	"strings"
	"testing"
)

// TestProductionImportsNoTrees keeps the paper's tree layouts out of what
// ships: the library and the serving, query and generator commands build
// and serve the frozen columns only, so none of them may depend — directly
// or transitively — on internal/bptree, internal/csstree or
// internal/treeforest (experiments and test oracles; DESIGN.md §7). CI runs
// the same `go list` as a step of the test job. Skipped under -short: it
// shells out to the go tool.
func TestProductionImportsNoTrees(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list")
	}
	out, err := exec.Command("go", "list", "-deps", ".", "./cmd/ttserve", "./cmd/ttquery", "./cmd/ttgen").CombinedOutput()
	if err != nil {
		t.Fatalf("go list -deps: %v\n%s", err, out)
	}
	for _, pkg := range strings.Fields(string(out)) {
		for _, banned := range []string{"internal/bptree", "internal/csstree", "internal/treeforest"} {
			if strings.HasSuffix(pkg, banned) {
				t.Errorf("production code depends on %s", pkg)
			}
		}
	}
}
