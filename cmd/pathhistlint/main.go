// Command pathhistlint runs the engine's invariant lint suite
// (internal/analysis, DESIGN.md §13) over Go packages:
//
//	go run ./cmd/pathhistlint ./...
//	go run ./cmd/pathhistlint -rules frozenmut,syncerr ./internal/...
//
// Exit status: 0 clean, 1 usage or load failure, 2 diagnostics reported.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pathhist/internal/analysis"
)

func main() {
	var (
		listFlag  = flag.Bool("list", false, "list the suite's analyzers and exit")
		rulesFlag = flag.String("rules", "", "comma-separated subset of rules to run (default: all)")
	)
	flag.Parse()

	if *listFlag {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := selectAnalyzers(*rulesFlag)
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	diags, err := analysis.Run(".", args, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		os.Exit(2)
	}
}

func selectAnalyzers(rules string) []*analysis.Analyzer {
	if rules == "" {
		return analysis.All()
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(rules, ",") {
		a := analysis.ByName(strings.TrimSpace(name))
		if a == nil {
			fmt.Fprintf(os.Stderr, "pathhistlint: unknown rule %q\n", name)
			os.Exit(1)
		}
		out = append(out, a)
	}
	return out
}
