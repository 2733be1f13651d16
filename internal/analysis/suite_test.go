package analysis_test

import (
	"os/exec"
	"strings"
	"testing"

	"pathhist/internal/analysis"
)

// Each analyzer runs over its fixture package under testdata/src — packages
// that compile but seed one violation per sub-rule, plus negative cases and
// one honored //lint:ignore suppression, checked against // want
// annotations.

func TestFrozenMut(t *testing.T) {
	runWant(t, "./testdata/src/frozenmut", analysis.FrozenMut)
}

func TestMapMut(t *testing.T) {
	runWant(t, "./testdata/src/mapmut", analysis.MapMut)
}

func TestSnapPin(t *testing.T) {
	runWant(t, "./testdata/src/snappin", analysis.SnapPin)
}

func TestSyncErr(t *testing.T) {
	runWant(t, "./testdata/src/syncerr", analysis.SyncErr)
}

func TestPoolEscape(t *testing.T) {
	runWant(t, "./testdata/src/poolescape", analysis.PoolEscape)
}

func TestCancelPoll(t *testing.T) {
	runWant(t, "./testdata/src/cancelpoll", analysis.CancelPoll)
}

// TestMalformedDirective checks the suppression machinery fail-closed: a
// directive without a reason is itself reported, and suppresses nothing.
func TestMalformedDirective(t *testing.T) {
	diags, err := analysis.Run(".", []string{"./testdata/src/lintignore"}, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	var rules []string
	for _, d := range diags {
		rules = append(rules, d.Rule)
	}
	got := strings.Join(rules, ",")
	// The malformed directive is reported, and the f.Close() it failed to
	// suppress still fires.
	if got != "lintignore,syncerr" {
		t.Fatalf("rules = %q, want \"lintignore,syncerr\"\ndiags:\n%v", got, diags)
	}
}

// TestByName covers rule-name resolution, including the unknown case.
func TestByName(t *testing.T) {
	for _, a := range analysis.All() {
		if analysis.ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not return the %s analyzer", a.Name, a.Name)
		}
	}
	if analysis.ByName("nosuchrule") != nil {
		t.Error("ByName(nosuchrule) != nil")
	}
}

// TestLintClean is the acceptance gate: the full suite over the whole
// module reports zero unsuppressed diagnostics. A new violation anywhere in
// the tree fails this test before it fails CI.
func TestLintClean(t *testing.T) {
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		t.Fatalf("locating module root: %v", err)
	}
	root := strings.TrimSpace(string(out))
	diags, err := analysis.Run(root, []string{"./..."}, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if t.Failed() {
		t.Log("fix the violation or add a justified //lint:ignore (see internal/analysis package doc)")
	}
}
