package analysis_test

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"pathhist/internal/analysis"
)

// expectation is one regexp of a `// want` annotation.
type expectation struct {
	file string // base name
	line int
	re   *regexp.Regexp
	met  bool
}

var (
	wantRE   = regexp.MustCompile(`//\s*want\s+(.+)$`)
	quotedRE = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")
)

// runWant loads the fixture package at dir (relative to the test's
// working directory), applies the analyzers and checks their diagnostics
// against `// want` annotations, mirroring golang.org/x/tools'
// analysistest closely enough that fixtures read familiarly:
//
//	fx.Ts[0] = 9 // want `write to published frozen`
//
// Each annotation carries one or more backquoted (or double-quoted) regular
// expressions; every diagnostic on the annotated line must match one of
// them, every annotation must be matched by some diagnostic, and any
// diagnostic on an unannotated line fails the test. Suppressed diagnostics
// never reach the matcher — a fixture line carrying //lint:ignore and no
// `want` is exactly how suppression is proven to work.
func runWant(t *testing.T, dir string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	diags, err := analysis.Run(".", []string{dir}, analyzers)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	wants, err := collectWants(dir)
	if err != nil {
		t.Fatalf("reading fixtures in %s: %v", dir, err)
	}
	for _, d := range diags {
		if !matchWant(wants, d) {
			t.Errorf("unexpected diagnostic:\n  %s", d)
		}
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s:%d: no %q diagnostic matched /%s/", w.file, w.line, analyzerNames(analyzers), w.re)
		}
	}
}

func analyzerNames(analyzers []*analysis.Analyzer) string {
	names := make([]string, len(analyzers))
	for i, a := range analyzers {
		names[i] = a.Name
	}
	return strings.Join(names, ",")
}

// matchWant marks the first unmet expectation on d's line whose regexp
// matches the message.
func matchWant(wants []*expectation, d analysis.Diagnostic) bool {
	base := filepath.Base(d.Pos.Filename)
	for _, w := range wants {
		if w.met || w.file != base || w.line != d.Pos.Line {
			continue
		}
		if w.re.MatchString(d.Message) || w.re.MatchString(d.Rule+": "+d.Message) {
			w.met = true
			return true
		}
	}
	return false
}

// collectWants scans every .go file in dir for `// want` annotations.
func collectWants(dir string) ([]*expectation, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var wants []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		fw, err := fileWants(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		wants = append(wants, fw...)
	}
	return wants, nil
}

func fileWants(path string) ([]*expectation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	base := filepath.Base(path)
	var wants []*expectation
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		m := wantRE.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		quoted := quotedRE.FindAllStringSubmatch(m[1], -1)
		if quoted == nil {
			return nil, fmt.Errorf("%s:%d: // want with no quoted regexp", base, line)
		}
		for _, q := range quoted {
			pat := q[1]
			if pat == "" {
				pat = q[2]
			}
			re, err := regexp.Compile(pat)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: bad want regexp: %v", base, line, err)
			}
			wants = append(wants, &expectation{file: base, line: line, re: re})
		}
	}
	return wants, sc.Err()
}
