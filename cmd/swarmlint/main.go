// Command swarmlint runs Swarm's project-specific static analyzers
// over the repository: buffer-pool ownership (bufpool), lock/I-O
// discipline (lockio), guarded-field locking (guardedby), error
// classification (errclass), placement indexing (placement),
// wire.Status exhaustiveness (statuscase), mixed atomic/plain field
// access (atomicmix), and goroutine lifecycle (goroleak). See internal/lint and DESIGN.md §7.
//
// Usage:
//
//	swarmlint [-only name,name] [-list] [packages]
//
// Packages default to ./... relative to the enclosing module. The
// analyzers run in parallel, one goroutine each. Exit status is 0 when
// clean, 1 when diagnostics were reported, and 2 when loading or
// type-checking failed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"swarm/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its dependencies injected, so the CLI contract —
// exit codes, diagnostic format, -list output — is testable.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("swarmlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list analyzers and exit")
	dir := fs.String("C", ".", "directory to resolve the module from")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: swarmlint [flags] [packages]\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.Default()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-10s %s\n", a.Name(), a.Doc())
		}
		return 0
	}
	if *only != "" {
		var err error
		analyzers, err = lint.ByName(analyzers, strings.Split(*only, ","))
		if err != nil {
			fmt.Fprintln(stderr, "swarmlint:", err)
			return 2
		}
	}

	root, err := lint.ModuleRoot(*dir)
	if err != nil {
		fmt.Fprintln(stderr, "swarmlint:", err)
		return 2
	}
	loader, err := lint.NewLoader(root, fs.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, "swarmlint:", err)
		return 2
	}
	pkgs, err := loader.Load()
	if err != nil {
		fmt.Fprintln(stderr, "swarmlint:", err)
		return 2
	}

	diags := lint.Run(pkgs, analyzers)
	for _, d := range diags {
		// Print paths relative to the module root when possible: stable
		// output for CI logs regardless of checkout location.
		if rel, err := filepath.Rel(root, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			d.Pos.Filename = rel
		}
		fmt.Fprintln(stdout, d.String())
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "swarmlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
