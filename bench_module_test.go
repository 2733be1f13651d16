package pathhist

import (
	"os/exec"
	"testing"
)

// TestBenchModule vets and tests the nested benchmark module. bench/ has
// its own go.mod (the benchmark contract: it must build where only
// BENCHMARK.json and bench/ plus this module exist), so `go test ./...` from
// the root never reaches it; this test does, so a change to an internal API
// the benchmark compiles against fails tier-1 instead of rotting bench/
// silently. Skipped under -short: it builds ttserve and runs the traced
// smoke of all four workloads (~15 s).
func TestBenchModule(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and smoke-runs the benchmark module")
	}
	for _, args := range [][]string{
		{"vet", "-C", "bench", "./..."},
		{"test", "-C", "bench", "./..."},
	} {
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			t.Fatalf("go %v: %v\n%s", args, err, out)
		}
	}
}
