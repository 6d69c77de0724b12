// Command dflint runs the repository's zero-dependency static-analysis
// suite (internal/lint): determinism, errsink, floateq, maporder,
// netboundary, panicmsg and serial. It exits 0 when the tree is clean, 1
// on findings and 2 on usage or load errors.
//
// Usage:
//
//	go run ./cmd/dflint ./...
//	go run ./cmd/dflint -json ./internal/runtime
//
// Findings are suppressed with an annotated comment on (or directly
// above) the flagged line:
//
//	//lint:ignore floateq exact tie-break keeps the heap order total
//
// The reason is mandatory; a suppression without one is itself reported.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"degradedfirst/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a stable JSON array")
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: dflint [-json] [-list] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	loader, err := lint.NewLoader(wd)
	if err != nil {
		fatal(err)
	}
	units, err := loader.Load(patterns)
	if err != nil {
		fatal(err)
	}
	diags := lint.Run(loader, units, analyzers)

	if *jsonOut {
		b, err := lint.EncodeJSON(diags)
		if err != nil {
			fatal(err)
		}
		if _, err := os.Stdout.Write(b); err != nil {
			fatal(err)
		}
	} else {
		var sb strings.Builder
		for _, d := range diags {
			fmt.Fprintf(&sb, "%s\n", d)
		}
		if _, err := os.Stdout.WriteString(sb.String()); err != nil {
			fatal(err)
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dflint:", err)
	os.Exit(2)
}
